"""Command-line entry point for reproducible experiment runs.

Commands: ``pretrain``, ``finetune``, ``eval``, ``splits``,
``gradcheck``, ``noise-stats``. Settings come from a flat key=value
config file overridden by flags; the keys are the scalar fields of
``TrainConfig``, the architecture fields of ``CMixerConfig`` and the CLI
keys, each read as the type of its default. Every run writes a
``manifest.txt`` with the fully resolved settings plus sha256 checksums
of its artifacts, and a manifest can itself be passed back as
``--config`` to reproduce the run. Output directories are guarded by a
lockfile so parallel runs cannot share one. A command that loads a
checkpoint runs with its toggles and refuses one that does not fit the
run (see ``_checked_checkpoint``).

Exit codes: 0 ok, 1 check failure, 2 config error, 3 data/IO error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import os
import sys
from pathlib import Path

import numpy as np

from .data import (Split, TaskKind, _to_model_layout, corrupt_labels, load_npz, make_semi,
                   write_npz)
from .errors import CMixerError, ConfigError, ContractError, FormatError
from .gradcheck import run_suite
from .metrics import evaluate, report_rows
from .model import (
    DATA_FIELDS,
    CMixerConfig,
    CMixerModel,
    Toggles,
    data_fields,
    field_types,
    incentive_mu_sigma,
    load_checkpoint,
    parse_lines,
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

# the architecture keys: CMixerConfig.small's arguments that the data does not fix
_SMALL = inspect.signature(CMixerConfig.small).parameters
_ARCH_TYPES = {k: t for k, t in field_types(CMixerConfig).items()
               if k in _SMALL and k not in DATA_FIELDS}
# keys no dataclass holds, with their defaults
_CLI_DEFAULTS = {"split": "test", "semi_frac": 0.1, "corrupt_rate": 0.0, "samples": 16}
_STR_KEYS = ("data", "out", "checkpoint", "init_checkpoint", "task", "toggles", "command", "config")
_KEY_TYPES = {**field_types(TrainConfig), **_ARCH_TYPES, **dict.fromkeys(_STR_KEYS, str),
              **{k: type(v) for k, v in _CLI_DEFAULTS.items()}}


def _default_settings() -> dict:
    # the model defaults are CMixerConfig.small's, which derives unset mixing widths
    settings = {k: _SMALL[k].default for k in _ARCH_TYPES if _SMALL[k].default is not None}
    settings.update({k: getattr(TrainConfig, k) for k in field_types(TrainConfig)})
    settings.update(_CLI_DEFAULTS)
    return settings


def parse_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # a manifest's checksum lines describe the artifacts, not settings
    lines = ["" if line.strip().startswith("checksum.") else line for line in text.splitlines()]
    try:
        return parse_lines("\n".join(lines), _KEY_TYPES)
    except FormatError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def resolve_settings(args: argparse.Namespace) -> dict:
    settings = _default_settings()
    if args.config:
        settings.update(parse_config_file(args.config))
        settings["config"] = args.config
    for flag in ("data", "out", "seed", "checkpoint", "semi_frac", "corrupt_rate", "samples"):
        value = getattr(args, flag, None)
        if value is not None:
            settings[flag] = value
    names = [t for t in settings.get("toggles", "").split(",") if t] + (args.toggle or [])
    for name in names:
        if name not in TOGGLE_NAMES:
            raise ConfigError(
                f"unknown toggle {name!r}; valid: {', '.join(sorted(TOGGLE_NAMES))}"
            )
    settings["toggles"] = ",".join(dict.fromkeys(names))
    if settings["seed"] < 0:  # every command seeds a generator with it
        raise ConfigError(f"seed={settings['seed']}: must be nonnegative")
    return settings


def toggles_from(settings: dict) -> Toggles:
    try:
        return Toggles(**{TOGGLE_NAMES[n]: False for n in settings["toggles"].split(",") if n})
    except ContractError as exc:
        raise ConfigError(f"toggles={settings['toggles']}: {exc}") from None


def train_config_from(settings: dict) -> TrainConfig:
    try:
        return TrainConfig(**{k: settings[k] for k in field_types(TrainConfig)})
    except ContractError as exc:
        raise ConfigError(str(exc)) from None


def model_config_from(settings: dict, bundle) -> CMixerConfig:
    kwargs = {k: settings[k] for k in _ARCH_TYPES if k in settings}
    try:
        return CMixerConfig.small(**data_fields(bundle), **kwargs)
    except ContractError as exc:
        raise ConfigError(str(exc)) from None


def _load_bundle(settings: dict):
    path = settings.get("data")
    if not path:
        raise ConfigError("no dataset given; use --data or a data= config line")
    task = settings.get("task")
    try:
        kind = TaskKind(task) if task else None
    except ValueError:
        valid = ", ".join(t.value for t in TaskKind)
        raise ConfigError(f"unknown task {task!r}; valid: {valid}") from None
    return load_npz(path, task=kind)


def _checked_checkpoint(
    settings: dict, bundle, key: str = "checkpoint", architecture: bool = False
) -> CMixerModel:
    """Load ``settings[key]``; refuse it unless its channels, image side and
    class count are the data's (and with ``architecture`` its architecture
    keys the settings'), and named toggles are its own. Its toggles and
    architecture keys become the run's, so the manifest records them."""
    path = settings.get(key)
    if not path:
        raise ConfigError(f"no {key} given; use --{key} or a {key}= config line")
    if not Path(path).exists():
        raise FormatError(f"checkpoint {path} does not exist")
    model = load_checkpoint(path)
    want = data_fields(bundle)
    if architecture:
        resolved = model_config_from(settings, bundle)
        want.update({k: getattr(resolved, k) for k in _ARCH_TYPES})
    for name, value in want.items():
        have = getattr(model.config, name)
        if have != value:
            raise ConfigError(f"checkpoint {path} has {name}={have}, the run has {name}={value}")
    names = ",".join(n for n, field in TOGGLE_NAMES.items() if not getattr(model.toggles, field))
    if settings["toggles"] and toggles_from(settings) != model.toggles:
        raise ConfigError(
            f"toggles={settings['toggles']} differ from checkpoint {path}'s toggles={names}"
        )
    settings["toggles"] = settings["toggles"] or names
    settings.update({k: getattr(model.config, k) for k in _ARCH_TYPES})
    return model


class OutputDir:
    """Owns one run's output directory, lockfile, manifest, and artifacts.

    A context manager: leaving the ``with`` block releases the lock, also
    when the run raises (``KeyboardInterrupt`` included).
    """

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

    def __enter__(self) -> "OutputDir":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

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
            if key in ("command", "out"):  # a replayed manifest holds both
                continue
            lines.append(f"{key}={settings[key]}")
        lines.append(f"out={self.path}")
        for p in self.artifacts:
            digest = hashlib.sha256(p.read_bytes()).hexdigest()
            lines.append(f"checksum.{p.name}={digest}")
        (self.path / "manifest.txt").write_text("\n".join(lines) + "\n")

    def release(self) -> None:
        if getattr(self, "_fd", None) is not None:
            os.close(self._fd)
            self._fd = None
            self.lock.unlink(missing_ok=True)


def cmd_pretrain(settings: dict) -> int:
    bundle = _load_bundle(settings)
    rng = np.random.default_rng(settings["seed"])
    model = CMixerModel(model_config_from(settings, bundle), rng=rng)
    model.toggles = toggles_from(settings)
    train_config = train_config_from(settings)
    with OutputDir(settings) as out:
        result = pretrain(model, bundle, train_config, rng)
        save_checkpoint(out.file("checkpoint.npz"), result.model)
        save_checkpoint(out.file("checkpoint_ema.npz"), result.model, params=result.ema)
        out.write_csv("pretrain_log.csv", result.rows)
        out.finish("pretrain", settings)
    print(f"pretrain done: {len(result.losses)} steps, artifacts in {out.path}")
    return 0


def cmd_finetune(settings: dict) -> int:
    bundle = _load_bundle(settings)
    rng = np.random.default_rng(settings["seed"])
    if settings.get("init_checkpoint"):
        model = _checked_checkpoint(settings, bundle, "init_checkpoint", architecture=True)
    else:
        model = CMixerModel(model_config_from(settings, bundle), rng=rng)
        model.toggles = toggles_from(settings)
    train_config = train_config_from(settings)
    with OutputDir(settings) as out:
        result = finetune(model, bundle, train_config, rng)
        save_checkpoint(out.file("checkpoint.npz"), result.model)
        out.write_csv("metrics.csv", result.rows)
        out.finish("finetune", settings)
    print(f"finetune done: artifacts in {out.path}")
    return 0


def cmd_eval(settings: dict) -> int:
    try:
        split = Split[settings["split"].upper().replace("-", "_")]
    except KeyError:
        valid = ", ".join(s.name.lower() for s in Split)
        raise ConfigError(f"unknown split {settings['split']!r}; valid: {valid}") from None
    bundle = _load_bundle(settings)
    model = _checked_checkpoint(settings, bundle)
    with OutputDir(settings) as out:
        report = evaluate(model, bundle, split, rng=np.random.default_rng(settings["seed"]))
        out.write_csv("eval.csv", report_rows(report, settings["split"]))
        out.finish("eval", settings)
    print(f"eval {settings['split']}: acc={report.acc:.4f} auc={report.auc:.4f} n={report.n}")
    return 0


def cmd_splits(settings: dict) -> int:
    if not 0.0 <= settings["corrupt_rate"] <= 1.0:  # a rate of 0 or less skips corrupt_labels
        raise ConfigError(f"corrupt_rate={settings['corrupt_rate']}: must be in [0,1]")
    bundle = _load_bundle(settings)
    rng = np.random.default_rng(settings["seed"])
    try:
        semi = make_semi(bundle, settings["semi_frac"], rng)
    except ContractError as exc:
        raise ConfigError(f"semi_frac={settings['semi_frac']}: {exc}") from None
    corrupted_idx = np.empty(0, dtype=np.int64)
    if settings["corrupt_rate"] > 0:
        try:
            semi, corrupted_idx = corrupt_labels(semi, settings["corrupt_rate"], rng)
        except ContractError as exc:
            raise ConfigError(f"corrupt_rate={settings['corrupt_rate']}: {exc}") from None
    with OutputDir(settings) as out:
        write_npz(semi, out.file("splits.npz"))
        sidecar = out.file("corrupted.csv")
        with open(sidecar, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index"])
            for i in corrupted_idx:
                writer.writerow([int(i)])
        out.finish("splits", settings)
    counts = semi.split_counts()
    print(
        f"splits written: labeled={counts['train_labeled']} test={counts['test']} "
        f"corrupted={len(corrupted_idx)}"
    )
    return 0


def cmd_gradcheck(settings: dict) -> int:
    result = run_suite()
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
    if settings["samples"] < 1:
        raise ConfigError(f"samples={settings['samples']}: must be at least 1")
    bundle = _load_bundle(settings)
    model = _checked_checkpoint(settings, bundle)
    n = min(settings["samples"], bundle.n)
    idx = bundle.indices(Split.TEST)[:n]
    if len(idx) < n:
        idx = np.arange(n)
    images = _to_model_layout(bundle.images[idx])
    _, mu, _, sigma = incentive_mu_sigma(images, model.params)
    mu, sigma = mu.ravel(), sigma.ravel()
    rng = np.random.default_rng(settings["seed"])
    with OutputDir(settings) as out:
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
    print(f"noise stats for {n} samples in {path}")
    return 0


COMMANDS = {
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "eval": cmd_eval,
    "splits": cmd_splits,
    "gradcheck": cmd_gradcheck,
    "noise-stats": cmd_noise_stats,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmixer", description="complex-mixer training toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
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
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](resolve_settings(args))
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
