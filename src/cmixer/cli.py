"""Command-line entry point for reproducible experiment runs.

Commands: ``pretrain``, ``finetune``, ``eval``, ``splits``,
``gradcheck``, ``noise-stats``. Settings come from a flat key=value
config file overridden by flags; every run writes a ``manifest.txt``
with the fully resolved settings plus sha256 checksums of its
artifacts, and a manifest can itself be passed back as ``--config`` to
reproduce the run. Output directories are guarded by a lockfile so
parallel runs cannot share one.

Exit codes: 0 ok, 1 check failure, 2 config error, 3 data/IO error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import sys
from pathlib import Path

import numpy as np

from . import engine
from .data import Split, TaskKind, corrupt_labels, load_npz, make_semi, write_npz
from .errors import CMixerError, ConfigError, FormatError
from .gradcheck import run_suite
from .metrics import evaluate, report_rows
from .model import (
    CMixerConfig,
    CMixerModel,
    Toggles,
    incentive_mu_sigma,
    load_checkpoint,
    save_checkpoint,
)
from .train import TrainConfig, finetune, pretrain

TOGGLE_NAMES = {
    "no-ssl": "ssl",
    "no-rm": "rm",
    "no-il": "il",
    "p-real-only": "p_i",  # keep real part only: drop the imaginary input to p
    "p-imag-only": "p_r",
}

_INT_KEYS = {
    "seed", "epochs", "batch_size", "warmup_steps", "pretrain_epochs",
    "pretrain_batch_size", "pretrain_warmup_steps", "num_layers", "hidden",
    "patch", "token_hidden", "channel_hidden", "num_classes", "samples",
}
_FLOAT_KEYS = {
    "lr", "momentum", "weight_decay", "pretrain_lr", "pretrain_weight_decay",
    "clip_norm", "mask_rate", "temperature", "ema_decay", "semi_frac",
    "corrupt_rate",
}
_STR_KEYS = {
    "data", "out", "checkpoint", "init_checkpoint", "task", "split",
    "toggles", "command", "config",
}
_IGNORED_PREFIXES = ("checksum.",)

_DEFAULTS = {
    "seed": 0,
    "split": "test",
    "semi_frac": 0.1,
    "corrupt_rate": 0.0,
    "samples": 16,
    "epochs": 100,
    "batch_size": 512,
    "lr": 0.01,
    "momentum": 0.9,
    "weight_decay": 0.0,
    "warmup_steps": 100,
    "pretrain_epochs": 10,
    "pretrain_batch_size": 500,
    "pretrain_lr": 1e-3,
    "pretrain_weight_decay": 0.05,
    "pretrain_warmup_steps": 1000,
    "clip_norm": 1.0,
    "mask_rate": 0.2,
    "temperature": 0.5,
    "ema_decay": 0.99,
    "num_layers": 2,
    "hidden": 16,
    "patch": 4,
}


def parse_config_file(path: str) -> dict:
    settings: dict = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        value = value.strip()
        if any(key.startswith(p) for p in _IGNORED_PREFIXES):
            continue
        if key in _INT_KEYS:
            settings[key] = int(value)
        elif key in _FLOAT_KEYS:
            settings[key] = float(value)
        elif key in _STR_KEYS:
            settings[key] = value
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return settings


def resolve_settings(args: argparse.Namespace) -> dict:
    settings = dict(_DEFAULTS)
    if args.config:
        settings.update(parse_config_file(args.config))
        settings["config"] = args.config
    for flag in ("data", "out", "seed", "checkpoint"):
        value = getattr(args, flag.replace("-", "_"), None)
        if value is not None:
            settings[flag] = value
    if getattr(args, "semi_frac", None) is not None:
        settings["semi_frac"] = args.semi_frac
    if getattr(args, "corrupt_rate", None) is not None:
        settings["corrupt_rate"] = args.corrupt_rate
    if getattr(args, "samples", None) is not None:
        settings["samples"] = args.samples
    toggles = settings.get("toggles", "")
    names = [t for t in str(toggles).split(",") if t]
    for name in getattr(args, "toggle", None) or []:
        if name not in names:
            names.append(name)
    for name in names:
        if name not in TOGGLE_NAMES:
            raise ConfigError(
                f"unknown toggle {name!r}; valid: {', '.join(sorted(TOGGLE_NAMES))}"
            )
    settings["toggles"] = ",".join(names)
    return settings


def toggles_from(settings: dict) -> Toggles:
    kwargs = {}
    for name in str(settings.get("toggles", "")).split(","):
        if name:
            kwargs[TOGGLE_NAMES[name]] = False
    return Toggles(**kwargs)


def train_config_from(settings: dict) -> TrainConfig:
    return TrainConfig(
        pretrain_epochs=settings["pretrain_epochs"],
        pretrain_batch_size=settings["pretrain_batch_size"],
        pretrain_lr=settings["pretrain_lr"],
        pretrain_weight_decay=settings["pretrain_weight_decay"],
        pretrain_warmup_steps=settings["pretrain_warmup_steps"],
        epochs=settings["epochs"],
        batch_size=settings["batch_size"],
        lr=settings["lr"],
        momentum=settings["momentum"],
        weight_decay=settings["weight_decay"],
        warmup_steps=settings["warmup_steps"],
        clip_norm=settings["clip_norm"],
        mask_rate=settings["mask_rate"],
        temperature=settings["temperature"],
        ema_decay=settings["ema_decay"],
        seed=settings["seed"],
        toggles=toggles_from(settings),
    )


def model_config_from(settings: dict, bundle) -> CMixerConfig:
    side = bundle.images.shape[1]
    patch = settings["patch"]
    if side % patch != 0:
        raise ConfigError(f"patch {patch} does not divide image side {side}")
    seq = (side // patch) ** 2
    hidden = settings["hidden"]
    return CMixerConfig(
        num_layers=settings["num_layers"],
        hidden=hidden,
        seq=seq,
        patch=patch,
        token_hidden=settings.get("token_hidden") or 2 * seq,
        channel_hidden=settings.get("channel_hidden") or 2 * hidden,
        num_classes=settings.get("num_classes") or bundle.num_classes,
        in_channels=bundle.images.shape[3],
        image_side=side,
    )


def _load_bundle(settings: dict):
    path = settings.get("data")
    if not path:
        raise ConfigError("no dataset given; use --data or a data= config line")
    task = settings.get("task")
    return load_npz(path, task=TaskKind(task) if task else None)


class OutputDir:
    """Owns one run's output directory, lockfile, manifest, and artifacts."""

    def __init__(self, settings: dict):
        out = settings.get("out")
        if not out:
            raise ConfigError("no output directory given; use --out or out=")
        self.path = Path(out)
        self.path.mkdir(parents=True, exist_ok=True)
        self.lock = self.path / ".lock"
        self.artifacts: list[Path] = []
        try:
            self._fd = os.open(self.lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise FormatError(
                f"{self.path} is locked by another run (remove {self.lock} if stale)"
            ) from None

    def file(self, name: str) -> Path:
        p = self.path / name
        self.artifacts.append(p)
        return p

    def write_csv(self, name: str, rows) -> Path:
        p = self.file(name)
        with open(p, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "epoch", "split", "metric", "value"])
            for row in rows:
                step, epoch, split, metric, value = row
                writer.writerow([step, epoch, split, metric, repr(float(value))])
        return p

    def finish(self, command: str, settings: dict) -> None:
        lines = [f"command={command}"]
        for key in sorted(settings):
            if key == "out":
                continue
            lines.append(f"{key}={settings[key]}")
        lines.append(f"out={self.path}")
        for p in self.artifacts:
            digest = hashlib.sha256(p.read_bytes()).hexdigest()
            lines.append(f"checksum.{p.name}={digest}")
        (self.path / "manifest.txt").write_text("\n".join(lines) + "\n")
        self.release()

    def release(self) -> None:
        if getattr(self, "_fd", None) is not None:
            os.close(self._fd)
            self._fd = None
            self.lock.unlink(missing_ok=True)


def cmd_pretrain(settings: dict) -> int:
    bundle = _load_bundle(settings)
    out = OutputDir(settings)
    try:
        rng = np.random.default_rng(settings["seed"])
        model = CMixerModel(model_config_from(settings, bundle), rng=rng)
        result = pretrain(model, bundle, train_config_from(settings), rng)
        save_checkpoint(out.file("checkpoint.npz"), result.model)
        save_checkpoint(out.file("checkpoint_ema.npz"), result.model, params=result.ema)
        out.write_csv("pretrain_log.csv", result.rows)
        out.finish("pretrain", settings)
    except BaseException:
        out.release()
        raise
    print(f"pretrain done: {len(result.losses)} steps, artifacts in {out.path}")
    return 0


def cmd_finetune(settings: dict) -> int:
    bundle = _load_bundle(settings)
    out = OutputDir(settings)
    try:
        rng = np.random.default_rng(settings["seed"])
        init = settings.get("init_checkpoint")
        if init:
            model = load_checkpoint(init)
        else:
            model = CMixerModel(model_config_from(settings, bundle), rng=rng)
        result = finetune(model, bundle, train_config_from(settings), rng)
        save_checkpoint(out.file("checkpoint.npz"), result.model)
        out.write_csv("metrics.csv", result.rows)
        out.finish("finetune", settings)
    except BaseException:
        out.release()
        raise
    print(f"finetune done: artifacts in {out.path}")
    return 0


def cmd_eval(settings: dict) -> int:
    checkpoint = settings.get("checkpoint")
    if not checkpoint:
        raise ConfigError("eval needs --checkpoint")
    if not Path(checkpoint).exists():
        raise FormatError(f"checkpoint {checkpoint} does not exist")
    model = load_checkpoint(checkpoint)
    bundle = _load_bundle(settings)
    split = Split[settings["split"].upper().replace("-", "_")]
    out = OutputDir(settings)
    try:
        report = evaluate(
            model,
            bundle,
            split,
            rng=np.random.default_rng(settings["seed"]),
            toggles=toggles_from(settings),
        )
        out.write_csv("eval.csv", report_rows(report, settings["split"]))
        out.finish("eval", settings)
    except BaseException:
        out.release()
        raise
    print(f"eval {settings['split']}: acc={report.acc:.4f} auc={report.auc:.4f} n={report.n}")
    return 0


def cmd_splits(settings: dict) -> int:
    bundle = _load_bundle(settings)
    out = OutputDir(settings)
    try:
        rng = np.random.default_rng(settings["seed"])
        semi = make_semi(bundle, settings["semi_frac"], rng)
        corrupted_idx = np.empty(0, dtype=np.int64)
        if settings["corrupt_rate"] > 0:
            semi, corrupted_idx = corrupt_labels(semi, settings["corrupt_rate"], rng)
        write_npz(semi, out.file("splits.npz"))
        sidecar = out.file("corrupted.csv")
        with open(sidecar, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index"])
            for i in corrupted_idx:
                writer.writerow([int(i)])
        out.finish("splits", settings)
    except BaseException:
        out.release()
        raise
    counts = semi.split_counts()
    print(
        f"splits written: labeled={counts['train_labeled']} test={counts['test']} "
        f"corrupted={len(corrupted_idx)}"
    )
    return 0


def cmd_gradcheck(settings: dict, corrupt: str | None = None) -> int:
    result = run_suite(corrupt_op=corrupt)
    for line in result.lines():
        print(line)
    worst = result.worst
    print(
        f"worst: {worst.name} max_rel_err={worst.max_rel_error:.3e} "
        f"({result.seconds:.1f}s)"
    )
    if not result.passed:
        failing = [r.name for r in result.results if not r.passed][0]
        print(f"gradient check FAILED for op: {failing}")
        return 1
    return 0


def cmd_noise_stats(settings: dict) -> int:
    checkpoint = settings.get("checkpoint")
    if not checkpoint:
        raise ConfigError("noise-stats needs --checkpoint")
    if not Path(checkpoint).exists():
        raise FormatError(f"checkpoint {checkpoint} does not exist")
    model = load_checkpoint(checkpoint)
    bundle = _load_bundle(settings)
    n = min(settings["samples"], bundle.n)
    idx = bundle.indices(Split.TEST)[:n]
    if len(idx) < n:
        idx = np.arange(n)
    images = bundle.images[idx].astype(np.float64) / 255.0
    flat_images = np.transpose(images, (0, 3, 1, 2))
    with engine.no_grad():
        mu, sigma = incentive_mu_sigma(flat_images, model.params)
    mu, sigma = mu.data.ravel(), sigma.data.ravel()
    rng = np.random.default_rng(settings["seed"])
    out = OutputDir(settings)
    try:
        path = out.file("noise_stats.csv")
        edges = np.linspace(-3.0, 3.0, 65)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "mu", "sigma"] + [f"bin{i}" for i in range(64)])
            pixels = int(np.prod(images.shape[1:]))
            for row_i, (m, s) in enumerate(zip(mu, sigma)):
                draws = m + s * rng.standard_normal(pixels)
                hist, _ = np.histogram(np.clip(draws, -3.0, 3.0), bins=edges)
                writer.writerow([row_i, repr(float(m)), repr(float(s))] + hist.tolist())
        out.finish("noise-stats", settings)
    except BaseException:
        out.release()
        raise
    print(f"noise stats for {n} samples in {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmixer", description="complex-mixer training toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("pretrain", "finetune", "eval", "splits", "gradcheck", "noise-stats"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value settings file")
        p.add_argument("--data", help="dataset NPZ path")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int)
        p.add_argument("--checkpoint")
        p.add_argument(
            "--toggle", action="append",
            help="ablation toggle (repeatable): " + ", ".join(sorted(TOGGLE_NAMES)),
        )
        if name == "splits":
            p.add_argument("--semi-frac", type=float, dest="semi_frac")
            p.add_argument("--corrupt-rate", type=float, dest="corrupt_rate")
        if name == "noise-stats":
            p.add_argument("--samples", type=int)
        if name == "gradcheck":
            p.add_argument("--corrupt", help="testing hook: corrupt one op's backward")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = resolve_settings(args)
        command = args.command
        if command == "pretrain":
            return cmd_pretrain(settings)
        if command == "finetune":
            return cmd_finetune(settings)
        if command == "eval":
            return cmd_eval(settings)
        if command == "splits":
            return cmd_splits(settings)
        if command == "gradcheck":
            return cmd_gradcheck(settings, corrupt=getattr(args, "corrupt", None))
        if command == "noise-stats":
            return cmd_noise_stats(settings)
        raise ConfigError(f"unknown command {command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, FileNotFoundError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except CMixerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
