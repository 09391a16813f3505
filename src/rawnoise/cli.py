"""Command-line surface tying the pipeline together.

Subcommands: synthesize, calibrate, estimate, sample-params, gen-dataset,
eval-kl, train.  Every command is deterministic given its flags and seeds,
embeds provenance (seed, stream index, configs) in its outputs, writes
files atomically, and reports failures as a single machine-parsable line
``CODE: message`` on stderr with exit status 2 (validation) or 3
(internal).
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
import sys
import threading
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
from .streams import derive_stream

PARAM_CSV_HEADER = ["image_id", "K", "sigma", "mu_c", "sigma_r"]

# Stream index used for scene generation in `train` (patch streams use the
# running patch index; see streams.derive_stream).
SCENE_STREAM = 4


def _fmt(value: float) -> str:
    """Shortest round-trip decimal form; keeps CSV output byte-stable."""
    return repr(float(value))


def _load_params_arg(value: str) -> NoiseParams:
    """Accept either a JSON file path or an inline JSON object."""
    source = value if value.strip().startswith("{") else Path(value)
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


def _read_estimates(path: Path) -> tuple[list[str], list[tuple[str, NoiseParams, float | None]]]:
    """The header and ``(image_id, params, iso or None)`` rows of a UTF-8 estimates CSV.

    The header starts with PARAM_CSV_HEADER, optionally followed by ``iso``.
    """
    try:
        reader = csv.reader(io.StringIO(path.read_bytes().decode("utf-8"), newline=""))
        header = next(reader, None)
        lines = [(reader.line_num, row) for row in reader if row]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DomainError(f"{path} is not a readable UTF-8 CSV file: {exc}") from exc
    if header is None or header[: len(PARAM_CSV_HEADER)] != PARAM_CSV_HEADER:
        raise DomainError(f"{path} must start with header {','.join(PARAM_CSV_HEADER)}")
    has_iso = header[5:6] == ["iso"]
    rows = []
    for line_num, row in lines:
        try:
            if len(row) < len(PARAM_CSV_HEADER):
                raise ValueError(f"expected {len(PARAM_CSV_HEADER)} fields, got {len(row)}")
            image_id, k, sigma, mu_c, sigma_r = row[:5]
            params = NoiseParams(
                K=float(k), sigma=float(sigma), mu_c=float(mu_c), sigma_r=float(sigma_r)
            )
            iso = float(row[5]) if has_iso and len(row) > 5 and row[5] != "" else None
        except ValueError as exc:
            raise DomainError(f"{path} row {line_num}: {exc}") from exc
        rows.append((image_id, params, iso))
    return header, rows


# ----------------------------------------------------------------------
# synthesize


def _cmd_synthesize(args) -> int:
    if Path(args.out).suffix == ".json":  # the manifest path, with_suffix(".json"), is --out
        raise ConfigurationError(f"--out {args.out} would be replaced by its own manifest")
    clean = read_tensor(args.clean)
    params = _load_params_arg(args.params)
    rng = derive_stream(args.seed, args.stream_index)
    noisy = add_noise(clean, params, rng)
    extensions = {}
    if args.clamp:
        noisy = np.clip(noisy, 0.0, args.white_level)
        extensions = {"clamp": True, "white_level": args.white_level}
    write_tensor(args.out, noisy)
    Manifest(
        camera_id=args.camera_id,
        params=params,
        seed=args.seed,
        stream_index=args.stream_index,
        extensions=extensions,
    ).save(Path(args.out).with_suffix(".json"))
    return 0


# ----------------------------------------------------------------------
# calibrate


def _cmd_calibrate(args) -> int:
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
    rows = []
    if args.append and Path(args.append).exists():
        header, rows = _read_estimates(Path(args.append))
        if header != PARAM_CSV_HEADER:
            raise DomainError(f"{args.append} does not carry the parameter CSV header")
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
        table = [_params_row(image_id, p) for image_id, p, _ in rows]
        table.append(_params_row(args.image_id, params))
        atomic_write_text(Path(args.append), _csv_text(PARAM_CSV_HEADER, table))
    return 0


# ----------------------------------------------------------------------
# sample-params


def _cmd_sample_params(args) -> int:
    if args.count < 1:
        raise DomainError(f"--count must be >= 1, got {args.count}")
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
        str(args.out) + ".provenance.json",
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


class _NewFiles(list):
    """The files a command has created; a write onto an existing path raises FileExistsError.

    Writes from several threads take turns: one file is written at a time.
    """

    def __init__(self):
        super().__init__()
        self._lock = threading.Lock()

    def tensor(self, path: Path, array) -> None:
        with self._lock:
            write_tensor(path, array, exclusive=True)
            self.append(path)

    def json(self, path: Path, record: dict) -> None:
        with self._lock:
            save_json(path, record, exclusive=True)
            self.append(path)

    def manifest(self, path: Path, manifest: Manifest) -> None:
        with self._lock:
            manifest.save(path, exclusive=True)
            self.append(path)


@contextlib.contextmanager
def _removed_on_failure(dirs):
    """Yield a ``_NewFiles`` for the files a command writes under ``dirs``.

    If the command fails, every file it created is deleted, and so is every
    directory in ``dirs`` or above them that did not exist on entry; other
    files and directories stay as they were.
    """
    created = []
    for directory in dirs:
        while not directory.exists() and directory not in created:
            created.append(directory)
            directory = directory.parent
    written = _NewFiles()
    try:
        yield written
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        for directory in sorted(created, key=lambda d: len(d.parts), reverse=True):
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise


def _write_noisy(stem: Path, clean, params, rng, camera_id, seed, index, written) -> None:
    """Corrupt ``clean``, write ``<stem>.nraw`` and its ``<stem>.json`` manifest."""
    written.tensor(stem.with_suffix(".nraw"), add_noise(clean, params, rng))
    manifest = Manifest(camera_id=camera_id, params=params, seed=seed, stream_index=index)
    written.manifest(stem.with_suffix(".json"), manifest)


def _cmd_gen_dataset(args) -> int:
    """Write the dataset tree without replacing any file; a refused run removes what it wrote.

    Patches, and frames, are drawn on streams of their own, so they are
    generated in parallel (see ``parallel.run_units``) with the bytes of a serial run.
    """
    for flag in ("count", "height", "width"):
        if getattr(args, flag) < 1:
            raise DomainError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
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
        dirs = [out / "clean", out / "noisy"]
    else:
        params = _load_params_arg(args.params) if args.params else None
        if params is None:
            raise ConfigurationError(f"{args.mode} mode needs --params")
        header["params"] = params.as_dict()
        levels = [0.0]  # dark mode: zero illumination
        dirs = [out]
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
        dirs = [out / f"level_{j:02d}" for j in range(len(levels))]

    def patch(i):
        rng = derive_stream(args.seed, i)
        scene = synthetic.make_scene(rng, args.height, args.width, args.white_level)
        camera_id, camera = cameras[rng.integers(len(cameras))]
        params = calibration.sample_params(camera, rng)
        written.tensor(out / "clean" / f"patch_{i:05d}.nraw", scene)
        _write_noisy(
            out / "noisy" / f"patch_{i:05d}", scene, params, rng, camera_id, args.seed, i, written
        )

    def frame(unit):
        # Each level is one clean.nraw, then --count noisy frames on streams
        # j * count + k, so level j's files are units j * (count + 1) onward.
        j, k = divmod(unit, args.count + 1)
        clean = np.broadcast_to(levels[j], (4, args.height, args.width))
        if k == 0:
            written.tensor(dirs[j] / "clean.nraw", clean)
        else:
            index = j * args.count + k - 1
            rng = derive_stream(args.seed, index)
            _write_noisy(
                dirs[j] / f"noisy_{k - 1:04d}", clean, params, rng, args.camera_id, args.seed,
                index, written,
            )

    with _removed_on_failure(dirs) as written:
        written.json(out / "dataset.json", header)
        if args.mode == "train":
            run_units(args.count, patch)
        else:
            run_units(len(levels) * (args.count + 1), frame)
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
        if not self.cameras:
            raise ConfigurationError("training config needs a non-empty 'cameras' list")
        if not 0 < self.white_level < math.inf:
            raise ConfigurationError(f"white_level must be finite and > 0, got {self.white_level}")


def _cmd_train(args) -> int:
    record = load_json(Path(args.config), ConfigurationError, "training config")
    data = TrainData.from_dict(record)
    config = EstimatorConfig.from_dict(
        {k: v for k, v in record.items() if k not in TrainData.__dataclass_fields__}
    )

    bank = [_load_camera(path) for path in data.cameras]
    scene_rng = derive_stream(config.seed, SCENE_STREAM)
    scene_pool = synthetic.make_scene_pool(
        scene_rng, data.scene_pool_size, config.patch_height, config.patch_width, data.white_level
    )

    checkpoint = train_estimator(config, scene_pool, bank)
    checkpoint.save(data.out_checkpoint)

    log_path = Path(data.out_log or data.out_checkpoint + ".losses.csv")
    parts = ("contrastive", "regression", "total")
    rows = [
        [row["stage"], row["epoch"], *(_fmt(row[part]) for part in parts)]
        for row in checkpoint.metadata.get("loss_log", [])
    ]
    atomic_write_text(log_path, _csv_text(["stage", "epoch", *parts], rows))
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
