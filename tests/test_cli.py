import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from cmixer.cli import (
    _KEY_TYPES,
    build_parser,
    main,
    parse_config_file,
    resolve_settings,
    train_config_from,
)
from cmixer.data import DatasetBundle, load_npz, synth_dataset, write_npz
from cmixer.model import data_fields
from cmixer.npzio import read_arrays, write_arrays
from cmixer.train import TrainConfig


@pytest.fixture(scope="module")
def synth_npz(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.npz"
    bundle = synth_dataset(2, 30, 16, np.random.default_rng(0))
    write_npz(bundle, path)
    return str(path)


@pytest.fixture(scope="module")
def fast_config(tmp_path_factory, synth_npz):
    path = tmp_path_factory.mktemp("cfg") / "fast.cfg"
    path.write_text(
        "\n".join(
            [
                f"data={synth_npz}",
                "num_layers=1",
                "hidden=8",
                "patch=4",
                "epochs=3",
                "batch_size=32",
                "warmup_steps=2",
                "pretrain_epochs=2",
                "pretrain_batch_size=32",
                "pretrain_warmup_steps=2",
                "seed=1",
            ]
        )
        + "\n"
    )
    return str(path)


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestPretrainCommand:
    def test_artifacts_and_log_rows(self, fast_config, tmp_path):
        out = tmp_path / "run"
        assert main(["pretrain", "--config", fast_config, "--out", str(out)]) == 0
        assert (out / "checkpoint.npz").exists()
        assert (out / "checkpoint_ema.npz").exists()
        assert (out / "manifest.txt").exists()
        log = (out / "pretrain_log.csv").read_text().strip().splitlines()
        # 42 train samples, batch 32 -> 2 steps/epoch, 2 epochs, plus header
        assert log[0] == "step,epoch,split,metric,value"
        assert len(log) == 1 + 4

    def test_no_ssl_toggle_keeps_init(self, fast_config, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["pretrain", "--config", fast_config, "--out", str(out1)]) == 0
        assert main(
            ["pretrain", "--config", fast_config, "--out", str(out2), "--toggle", "no-ssl"]
        ) == 0
        with np.load(out2 / "checkpoint.npz") as npz:
            trained = dict(npz)
        with np.load(out1 / "checkpoint.npz") as npz:
            default = dict(npz)
        # same seed, so no-ssl returns the untouched initialization while
        # the default run moved away from it
        assert any(
            not np.array_equal(default[k], trained[k])
            for k in trained
            if k != "meta"
        )
        log = (out2 / "pretrain_log.csv").read_text().strip().splitlines()
        assert len(log) == 1  # header only


class TestFinetuneCommand:
    def test_artifacts(self, fast_config, tmp_path):
        out = tmp_path / "ft"
        assert main(["finetune", "--config", fast_config, "--out", str(out)]) == 0
        assert (out / "checkpoint.npz").exists()
        assert (out / "metrics.csv").exists()
        manifest = (out / "manifest.txt").read_text()
        assert "command=finetune" in manifest
        assert "checksum.checkpoint.npz=" in manifest

    def test_toggle_recorded_and_changes_run(self, fast_config, tmp_path):
        out1 = tmp_path / "d"
        out2 = tmp_path / "n"
        assert main(["finetune", "--config", fast_config, "--out", str(out1)]) == 0
        assert main(
            ["finetune", "--config", fast_config, "--out", str(out2), "--toggle", "no-il"]
        ) == 0
        manifest = (out2 / "manifest.txt").read_text()
        assert "toggles=no-il" in manifest
        assert sha(out1 / "metrics.csv") != sha(out2 / "metrics.csv")

    def test_init_checkpoint_round_trip(self, fast_config, tmp_path, synth_npz):
        pre = tmp_path / "pre"
        assert main(["pretrain", "--config", fast_config, "--out", str(pre)]) == 0
        cfg = Path(fast_config).read_text() + f"init_checkpoint={pre / 'checkpoint.npz'}\n"
        cfg_path = tmp_path / "ft.cfg"
        cfg_path.write_text(cfg)
        out = tmp_path / "ft2"
        assert main(["finetune", "--config", str(cfg_path), "--out", str(out)]) == 0


class TestEvalCommand:
    def test_missing_checkpoint_is_exit_3(self, fast_config, tmp_path):
        code = main(
            [
                "eval", "--config", fast_config, "--out", str(tmp_path / "e"),
                "--checkpoint", str(tmp_path / "missing.npz"),
            ]
        )
        assert code == 3

    def test_non_finite_checkpoint_is_exit_3_before_any_output(
            self, fast_config, real_only_checkpoint, tmp_path, capsys):
        arrays = read_arrays(real_only_checkpoint)
        arrays["block0.token1.weight.re"][0, 0] = np.nan
        path = tmp_path / "nan.npz"
        write_arrays(path, arrays)
        out = tmp_path / "e"
        code = main(["eval", "--config", fast_config, "--out", str(out),
                     "--checkpoint", str(path)])
        err = capsys.readouterr().err
        assert code == 3, err
        assert "'block0.token1.weight.re'" in err
        assert not out.exists()

    def test_eval_writes_csv(self, fast_config, tmp_path):
        ft = tmp_path / "ft"
        assert main(["finetune", "--config", fast_config, "--out", str(ft)]) == 0
        out = tmp_path / "ev"
        code = main(
            [
                "eval", "--config", fast_config, "--out", str(out),
                "--checkpoint", str(ft / "checkpoint.npz"),
            ]
        )
        assert code == 0
        text = (out / "eval.csv").read_text()
        assert "acc" in text and "auc" in text


class TestSplitsCommand:
    def test_reference_counts(self, tmp_path, capsys):
        # same shape as the largest 2-D set: 89,996 train / 10,004 val / 7,180 test
        rng = np.random.default_rng(0)
        from cmixer.data import DatasetBundle, Split, TaskKind

        n_train, n_val, n_test = 89_996, 10_004, 7_180
        n = n_train + n_val + n_test
        labels = rng.integers(0, 9, size=(n, 1)).astype(np.int64)
        labels[:9, 0] = np.arange(9)
        bundle = DatasetBundle(
            np.zeros((n, 1, 1, 1), dtype=np.uint8),
            labels,
            np.concatenate(
                [
                    np.full(n_train, int(Split.TRAIN_LABELED), dtype=np.uint8),
                    np.full(n_val, int(Split.VAL), dtype=np.uint8),
                    np.full(n_test, int(Split.TEST), dtype=np.uint8),
                ]
            ),
            TaskKind.MULTICLASS,
            9,
        )
        src = tmp_path / "big.npz"
        write_npz(bundle, src)
        out = tmp_path / "sp"
        code = main(
            ["splits", "--data", str(src), "--out", str(out), "--semi-frac", "0.1",
             "--seed", "7"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "labeled=8999" in printed and "test=88177" in printed
        derived = load_npz(out / "splits.npz")
        counts = derived.split_counts()
        assert counts["train_labeled"] == 8_999
        assert counts["test"] == 88_177

    def test_zero_corrupt_rate_empty_sidecar(self, synth_npz, tmp_path):
        out = tmp_path / "sp0"
        code = main(
            ["splits", "--data", synth_npz, "--out", str(out), "--semi-frac", "0.5",
             "--corrupt-rate", "0.0", "--seed", "3"]
        )
        assert code == 0
        lines = (out / "corrupted.csv").read_text().strip().splitlines()
        assert lines == ["index"]

    def test_same_seed_byte_identical(self, synth_npz, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = main(
                ["splits", "--data", synth_npz, "--out", str(out), "--semi-frac", "0.5",
                 "--corrupt-rate", "0.2", "--seed", "11"]
            )
            assert code == 0
            outs.append(out)
        assert sha(outs[0] / "splits.npz") == sha(outs[1] / "splits.npz")
        assert sha(outs[0] / "corrupted.csv") == sha(outs[1] / "corrupted.csv")

    def test_corruption_sidecar_matches_changes(self, synth_npz, tmp_path):
        out = tmp_path / "spc"
        code = main(
            ["splits", "--data", synth_npz, "--out", str(out), "--semi-frac", "1.0",
             "--corrupt-rate", "0.25", "--seed", "5"]
        )
        assert code == 0
        original = load_npz(synth_npz)
        derived = load_npz(out / "splits.npz")
        sidecar = (out / "corrupted.csv").read_text().strip().splitlines()[1:]
        changed = np.flatnonzero(original.labels[:, 0] != derived.labels[:, 0])
        assert len(sidecar) == len(changed) == round(0.25 * 42)


class TestGradcheckCommand:
    def test_fresh_build_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "max_rel_err" in out and "worst:" in out

    def test_corrupted_backward_fails_naming_op(self, capsys, corrupt_entry):
        corrupt_entry("bce_with_logits")
        assert main(["gradcheck"]) == 1
        out = capsys.readouterr().out
        assert "FAILED for op: bce_with_logits" in out

    def test_has_no_corrupt_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--corrupt", "bce_with_logits"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --corrupt" in capsys.readouterr().err


class TestNoiseStatsCommand:
    def test_untrained_rows_and_histogram(self, fast_config, tmp_path, synth_npz):
        pre = tmp_path / "pre"
        assert main(
            ["pretrain", "--config", fast_config, "--out", str(pre), "--toggle", "no-ssl"]
        ) == 0
        out = tmp_path / "ns"
        code = main(
            [
                "noise-stats", "--config", fast_config, "--out", str(out),
                "--checkpoint", str(pre / "checkpoint.npz"), "--samples", "6",
            ]
        )
        assert code == 0
        rows = (out / "noise_stats.csv").read_text().strip().splitlines()
        header, body = rows[0].split(","), rows[1:]
        assert len(body) == 6
        assert header[:3] == ["index", "mu", "sigma"] and len(header) == 3 + 64
        for line in body:
            cells = line.split(",")
            mu, sigma = float(cells[1]), float(cells[2])
            # zero-initialized noise head: tanh(0) mappings
            assert mu == 0.0 and sigma == 0.5
            assert 0.0 <= sigma <= 1.0
            assert sum(int(c) for c in cells[3:]) == 16 * 16

    def test_missing_checkpoint_exit_3(self, fast_config, tmp_path):
        code = main(
            ["noise-stats", "--config", fast_config, "--out", str(tmp_path / "x"),
             "--checkpoint", str(tmp_path / "nope.npz")]
        )
        assert code == 3


class TestConfigHandling:
    def test_unknown_key_exit_2_names_key(self, tmp_path, synth_npz, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"data={synth_npz}\nbanana=1\n")
        code = main(["finetune", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "banana" in capsys.readouterr().err

    def test_no_field_the_data_fixes_is_a_settable_key(self, tmp_path, synth_npz, capsys):
        """Each name ``data_fields`` gives is refused as a key, so it can never reach
        ``CMixerConfig.small`` twice."""
        names = list(data_fields(load_npz(synth_npz)))
        assert names and not set(names) & set(_KEY_TYPES)
        for name in names:
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(f"data={synth_npz}\n{name}=1\n")
            code = main(["finetune", "--config", str(cfg), "--out", str(tmp_path / name)])
            err = capsys.readouterr().err
            assert code == 2 and f"unknown key '{name}'" in err, err
            assert not (tmp_path / name).exists()

    def test_unknown_toggle_exit_2(self, fast_config, tmp_path, capsys):
        code = main(
            ["finetune", "--config", fast_config, "--out", str(tmp_path / "o"),
             "--toggle", "no-such"]
        )
        assert code == 2

    def test_missing_data_exit_2(self, tmp_path):
        code = main(["finetune", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_manifest_reproduces_run(self, fast_config, tmp_path):
        out1 = tmp_path / "m1"
        assert main(["finetune", "--config", fast_config, "--out", str(out1)]) == 0
        out2 = tmp_path / "m2"
        code = main(
            ["finetune", "--config", str(out1 / "manifest.txt"), "--out", str(out2)]
        )
        assert code == 0
        assert sha(out1 / "metrics.csv") == sha(out2 / "metrics.csv")
        assert sha(out1 / "checkpoint.npz") == sha(out2 / "checkpoint.npz")

    @pytest.mark.parametrize(
        "command, line, named",
        [
            ("finetune", "epochs=abc", ["epochs"]),
            ("finetune", "epochs=2.5", ["epochs"]),
            ("eval", "split=bogus", ["bogus", "train_labeled", "test"]),
            ("finetune", "task=bogus", ["bogus", "multiclass"]),
            ("finetune", "batch_size=0", ["batch_size"]),
            ("finetune", "patch=5", ["patch"]),
            ("finetune", "num_classes=2", ["num_classes"]),
            ("finetune", "patch=32", ["patch", "not divisible"]),
            ("finetune", "clip_norm=0", ["clip_norm"]),
            ("pretrain", "mask_rate=1.5", ["mask_rate"]),
            ("finetune", "lr=-1", ["error: lr "]),
            ("pretrain", "pretrain_lr=-1", ["pretrain_lr"]),
            ("finetune", "epochs=-1", ["error: epochs "]),
            ("pretrain", "pretrain_epochs=-1", ["pretrain_epochs"]),
            ("finetune", "warmup_steps=-3", ["error: warmup_steps "]),
            ("pretrain", "pretrain_warmup_steps=-3", ["pretrain_warmup_steps"]),
            ("finetune", "lr=nan", ["error: lr "]),
            ("finetune", "clip_norm=inf", ["clip_norm"]),
            ("pretrain", "temperature=nan", ["temperature"]),
            ("finetune", "momentum=-3", ["momentum"]),
            ("finetune", "momentum=7", ["momentum"]),
            ("pretrain", "pretrain_weight_decay=-1", ["pretrain_weight_decay"]),
            # fine-tuning has no weight decay, so the key is gone; old manifests hold it
            ("finetune", "weight_decay=0.0", ["unknown key 'weight_decay'"]),
        ],
    )
    def test_bad_value_exit_2_names_key(self, fast_config, tmp_path, capsys, command, line,
                                        named):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(Path(fast_config).read_text() + line + "\n")
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--checkpoint", str(tmp_path / "missing.npz")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "config error" in err
        for word in named:
            assert word in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, flags, named",
        [
            ("splits", ["--semi-frac", "0"], "semi_frac"),
            ("splits", ["--corrupt-rate", "2"], "corrupt_rate"),
            # checked before the data and the checkpoint are read: both are missing
            ("noise-stats", ["--samples", "0", "--data", "missing.npz"], "samples"),
            ("noise-stats", ["--samples", "-3", "--data", "missing.npz"], "samples"),
            # a rate of 0 or less never reaches corrupt_labels' own range check
            ("splits", ["--corrupt-rate", "-1"], "corrupt_rate"),
            ("splits", ["--corrupt-rate", "nan"], "corrupt_rate"),
            # checked before any generator is seeded or the data is read
            ("pretrain", ["--seed", "-1"], "seed"),
            ("splits", ["--seed", "-1"], "seed"),
            ("noise-stats", ["--seed", "-1", "--data", "missing.npz"], "seed"),
        ],
    )
    def test_bad_flag_exit_2_names_key(self, fast_config, tmp_path, capsys, command, flags,
                                       named):
        code = main([command, "--config", fast_config, "--out", str(tmp_path / "o"),
                     "--checkpoint", str(tmp_path / "missing.npz"), *flags])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "config error" in err and named in err
        assert not (tmp_path / "o").exists()

    def test_lockfile_blocks_concurrent_use(self, fast_config, tmp_path):
        out = tmp_path / "locked"
        out.mkdir()
        (out / ".lock").touch()
        code = main(["finetune", "--config", fast_config, "--out", str(out)])
        assert code == 3

    def test_manifest_round_trips_through_parser(self, fast_config, tmp_path):
        out = tmp_path / "mp"
        assert main(["finetune", "--config", fast_config, "--out", str(out)]) == 0
        settings = parse_config_file(out / "manifest.txt")
        assert settings["epochs"] == 3


class TestLabelChecks:
    @pytest.mark.parametrize("task, labels", [
        # index labels on three columns, read as one multiclass index
        ("multiclass", [[0, 1, 1], [1, 0, 0], [0, 0, 1], [1, 1, 0]] * 5),
        # a multilabel archive with one label of 2
        (None, [[0, 1, 1], [1, 0, 0], [0, 0, 1], [1, 1, 0]] * 4 + [[0, 2, 1]] * 4),
    ])
    def test_bad_labels_exit_3_before_out_exists(self, tmp_path, capsys, task, labels):
        labels = np.array(labels, dtype=np.int64)
        arrays = {}
        for kind, part in (("train", labels[:14]), ("val", labels[14:16]), ("test", labels[16:])):
            arrays[f"{kind}_images"] = np.zeros((len(part), 16, 16), dtype=np.uint8)
            arrays[f"{kind}_labels"] = part
        write_arrays(tmp_path / "labels.npz", arrays)
        cfg = tmp_path / "labels.cfg"
        cfg.write_text(f"data={tmp_path / 'labels.npz'}\n" + (f"task={task}\n" if task else ""))
        code = main(["finetune", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3, err
        assert "data error" in err and (task or "multilabel") in err
        assert not (tmp_path / "o").exists()


class TestImageShapeChecks:
    @pytest.mark.parametrize("sides, message", [
        ([(16, 12)] * 3, "images must be square, got 16x12"),
        ([(16, 16), (16, 16), (8, 8)], "image shapes (H, W, ch) differ across splits"),
    ])
    def test_bad_image_shapes_exit_3_before_out_exists(self, tmp_path, capsys, sides, message):
        arrays = {}
        for kind, n, side in zip(("train", "val", "test"), (6, 2, 2), sides):
            arrays[f"{kind}_images"] = np.zeros((n, *side), dtype=np.uint8)
            arrays[f"{kind}_labels"] = (np.arange(n, dtype=np.int64) % 2)[:, None]
        write_arrays(tmp_path / "shapes.npz", arrays)
        code = main(["finetune", "--data", str(tmp_path / "shapes.npz"),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3, err
        assert message in err
        assert not (tmp_path / "o").exists()


class TestSettingsSchema:
    def test_every_train_config_scalar_is_a_typed_key(self, tmp_path):
        fields = {f.name: f.default for f in dataclasses.fields(TrainConfig)
                  if type(f.default) in (int, float)}
        assert {"epochs", "lr", "seed", "pretrain_batch_size"} <= set(fields)
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{k}={v + 1}\n" for k, v in fields.items()))
        settings = parse_config_file(str(cfg))
        for name, default in fields.items():
            assert type(settings[name]) is type(default), name
            assert settings[name] == default + 1, name

    def test_default_settings_build_the_default_train_config(self):
        settings = resolve_settings(build_parser().parse_args(["finetune"]))
        assert train_config_from(settings) == TrainConfig()

    def test_every_train_config_field_is_a_key_and_a_manifest_line(self, fast_config, tmp_path):
        names = [f.name for f in dataclasses.fields(TrainConfig)]
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("".join(f"{name}={getattr(TrainConfig(), name)}\n" for name in names))
        assert train_config_from(parse_config_file(str(cfg))) == TrainConfig()
        out = tmp_path / "ft"
        assert main(["finetune", "--config", fast_config, "--out", str(out)]) == 0
        keys = [line.partition("=")[0] for line in (out / "manifest.txt").read_text().splitlines()]
        assert [name for name in names if name not in keys] == []


@pytest.fixture(scope="module")
def real_only_checkpoint(tmp_path_factory, fast_config):
    out = tmp_path_factory.mktemp("ck") / "ft"
    assert main(["finetune", "--config", fast_config, "--out", str(out),
                 "--toggle", "p-real-only"]) == 0
    return str(out / "checkpoint.npz")


def _archive(tmp_path, bundle):
    path = tmp_path / "other.npz"
    write_npz(bundle, path)
    return str(path)


class TestCheckpointChecks:
    def test_checkpoint_missing_a_part_is_exit_3(self, fast_config, real_only_checkpoint,
                                                 tmp_path, capsys):
        arrays = read_arrays(real_only_checkpoint)
        del arrays["head.bias.im"]
        path = tmp_path / "partial.npz"
        write_arrays(path, arrays)
        code = main(["eval", "--config", fast_config, "--out", str(tmp_path / "e"),
                     "--checkpoint", str(path)])
        err = capsys.readouterr().err
        assert code == 3, err
        assert "'head.bias.im'" in err

    def test_eval_refuses_other_toggles(self, fast_config, real_only_checkpoint, tmp_path,
                                        capsys):
        code = main(["eval", "--config", fast_config, "--out", str(tmp_path / "e"),
                     "--checkpoint", real_only_checkpoint, "--toggle", "no-il"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "toggles" in err and "p-real-only" in err

    def test_eval_refuses_other_class_count(self, fast_config, real_only_checkpoint, tmp_path,
                                            capsys):
        data = _archive(tmp_path, synth_dataset(3, 20, 16, np.random.default_rng(0)))
        code = main(["eval", "--config", fast_config, "--data", data, "--out",
                     str(tmp_path / "e"), "--checkpoint", real_only_checkpoint])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "num_classes" in err

    def test_eval_refuses_other_channels(self, fast_config, real_only_checkpoint, tmp_path,
                                         capsys):
        gray = synth_dataset(2, 20, 16, np.random.default_rng(0))
        rgb = DatasetBundle(np.repeat(gray.images, 3, axis=3), gray.labels, gray.splits,
                            gray.task, gray.num_classes)
        code = main(["eval", "--config", fast_config, "--data", _archive(tmp_path, rgb),
                     "--out", str(tmp_path / "e"), "--checkpoint", real_only_checkpoint])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "in_channels" in err

    def test_finetune_refuses_other_architecture(self, fast_config, real_only_checkpoint,
                                                 tmp_path, capsys):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(Path(fast_config).read_text()
                       + f"hidden=32\ninit_checkpoint={real_only_checkpoint}\n")
        code = main(["finetune", "--config", str(cfg), "--out", str(tmp_path / "f")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "hidden" in err
        assert not (tmp_path / "f").exists()

    @pytest.mark.parametrize("toggle", ["no-ssl", "no-rm", "no-il", "p-real-only",
                                        "p-imag-only"])
    def test_eval_takes_the_checkpoint_toggles(self, fast_config, tmp_path, toggle):
        ft = tmp_path / "ft"
        assert main(["finetune", "--config", fast_config, "--out", str(ft),
                     "--toggle", toggle]) == 0
        base = ["eval", "--config", fast_config, "--checkpoint", str(ft / "checkpoint.npz")]
        assert main(base + ["--out", str(tmp_path / "plain")]) == 0
        assert main(base + ["--out", str(tmp_path / "named"), "--toggle", toggle]) == 0
        assert sha(tmp_path / "plain" / "eval.csv") == sha(tmp_path / "named" / "eval.csv")
        assert f"toggles={toggle}\n" in (tmp_path / "plain" / "manifest.txt").read_text()


class TestManifestReplay:
    @pytest.mark.parametrize("command", ["pretrain", "eval", "splits", "noise-stats"])
    def test_manifest_reproduces_command(self, fast_config, real_only_checkpoint, synth_npz,
                                         tmp_path, command):
        args = {
            "pretrain": ["--config", fast_config],
            "eval": ["--config", fast_config, "--checkpoint", real_only_checkpoint],
            "splits": ["--data", synth_npz, "--semi-frac", "0.5", "--corrupt-rate", "0.2",
                       "--seed", "4"],
            "noise-stats": ["--config", fast_config, "--checkpoint", real_only_checkpoint,
                            "--samples", "5"],
        }[command]
        first, again = tmp_path / "first", tmp_path / "again"
        assert main([command, *args, "--out", str(first)]) == 0
        assert main([command, "--config", str(first / "manifest.txt"), "--out",
                     str(again)]) == 0
        artifacts = sorted(p.name for p in first.iterdir() if p.name != "manifest.txt")
        assert artifacts == sorted(p.name for p in again.iterdir() if p.name != "manifest.txt")
        for name in artifacts:
            assert sha(first / name) == sha(again / name), name


    @pytest.mark.parametrize("command", ["pretrain", "finetune", "eval", "splits",
                                         "noise-stats"])
    def test_replayed_manifest_matches_the_first(self, fast_config, real_only_checkpoint,
                                                 synth_npz, tmp_path, command):
        args = {
            "pretrain": ["--config", fast_config],
            "finetune": ["--config", fast_config],
            "eval": ["--config", fast_config, "--checkpoint", real_only_checkpoint],
            "splits": ["--data", synth_npz, "--seed", "4"],
            "noise-stats": ["--config", fast_config, "--checkpoint", real_only_checkpoint,
                            "--samples", "5"],
        }[command]
        first, again = tmp_path / "first", tmp_path / "again"
        assert main([command, *args, "--out", str(first)]) == 0
        assert main([command, "--config", str(first / "manifest.txt"), "--out",
                     str(again)]) == 0

        def lines(run):
            text = (run / "manifest.txt").read_text()
            return [line for line in text.splitlines()
                    if not line.startswith(("config=", "out="))]

        assert lines(first) == lines(again)
        assert [line for line in lines(again) if line.startswith("command=")] == [
            f"command={command}"]

    @pytest.mark.parametrize("command", ["eval", "noise-stats"])
    def test_manifest_records_the_checkpoint_architecture(self, real_only_checkpoint,
                                                          synth_npz, tmp_path, command):
        # no config, so the settings hold the CLI defaults (2 layers, hidden 16)
        # while the checkpoint has 1 layer of hidden 8
        out = tmp_path / "run"
        assert main([command, "--data", synth_npz, "--checkpoint", real_only_checkpoint,
                     "--out", str(out)]) == 0
        manifest = (out / "manifest.txt").read_text().splitlines()
        for line in ("num_layers=1", "hidden=8", "patch=4", "token_hidden=32",
                     "channel_hidden=16"):
            assert line in manifest, line


class TestOutputDirLock:
    @pytest.mark.parametrize("exc", [KeyboardInterrupt, RuntimeError])
    def test_lock_released_when_the_run_raises(self, fast_config, tmp_path, monkeypatch,
                                               exc):
        def interrupted(*args, **kwargs):
            raise exc

        monkeypatch.setattr("cmixer.cli.finetune", interrupted)
        out = tmp_path / "run"
        with pytest.raises(exc):
            main(["finetune", "--config", fast_config, "--out", str(out)])
        assert out.is_dir() and not (out / ".lock").exists()


class TestInputImmutability:
    def test_commands_do_not_touch_the_source_archive(self, fast_config, synth_npz, tmp_path):
        before = sha(synth_npz)
        assert main(["finetune", "--config", fast_config, "--out", str(tmp_path / "a")]) == 0
        assert main(
            ["splits", "--data", synth_npz, "--out", str(tmp_path / "b"),
             "--semi-frac", "0.5", "--corrupt-rate", "0.3", "--seed", "1"]
        ) == 0
        assert sha(synth_npz) == before


class TestDeterminism:
    def test_identical_runs_identical_artifacts(self, fast_config, tmp_path):
        shas = []
        for name in ("t1", "t2"):
            out = tmp_path / name
            assert main(["pretrain", "--config", fast_config, "--out", str(out)]) == 0
            shas.append(
                (sha(out / "checkpoint.npz"), sha(out / "checkpoint_ema.npz"),
                 sha(out / "pretrain_log.csv"))
            )
        assert shas[0] == shas[1]
