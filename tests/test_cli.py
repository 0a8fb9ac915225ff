"""Command line behavior: artifacts, exit codes, reproducibility."""

import base64
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from modelfile import ModelFile
from robsurv import cli, errors, trainer
from robsurv.synthdata import NoiseSpec, load_cohort

TINY_CONFIG = {
    "encoder": {"volume_side": 8, "latent_grid": 2, "latent_dim": 6, "codebook_size": 8},
    "fusion": {"d_model": 16, "d_k": 8, "n_heads": 2, "patch_size": 2,
               "channel_reduction": 2, "d_fused": 12},
    "epochs": 3, "batch_size": 4, "folds": 2, "n_bins": 5, "seed": 1,
}
NESTED_JSON = "[" * 100_000 + "]" * 100_000  # json raises RecursionError on it


def run_cli(argv, capsys):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    pairs = {}
    for line in captured.out.strip().splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            pairs[key] = value
    return code, pairs, captured.err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated cohort, a config file, and one trained run directory."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert cli.main(["gen", "--n", "12", "--side", "8", "--seed", "3",
                     "--out", str(data)]) == 0
    config = root / "tiny.json"
    config.write_text(json.dumps(TINY_CONFIG))
    run = root / "run"
    assert cli.main(["train", "--data", str(data), "--config", str(config),
                     "--out", str(run)]) == 0
    return {"root": root, "data": data, "config": config, "run": run,
            "model": run / "model.safetensors"}


def read_tree(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def copy_tree(source: Path, target: Path) -> Path:
    target.mkdir()
    for path in source.iterdir():
        (target / path.name).write_bytes(path.read_bytes())
    return target


def assert_one_error_line(err: str) -> None:
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_expected_files(tmp_path, capsys):
    out = tmp_path / "cohort"
    code, pairs, _ = run_cli(["gen", "--n", "8", "--side", "8", "--out", out], capsys)
    assert code == 0
    names = {p.name for p in out.iterdir()}
    volumes = {n for n in names if n.endswith(".f32")}
    assert len(volumes) == 16  # two modalities per patient
    assert names - volumes == {"manifest.json", "outcomes.csv"}
    assert pairs["patients"] == "8"
    assert int(pairs["events"]) + int(pairs["censored"]) == 8


def test_gen_rerun_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["gen", "--n", "6", "--side", "8", "--seed", "9", "--out", a], capsys)[0] == 0
    assert run_cli(["gen", "--n", "6", "--side", "8", "--seed", "9", "--out", b], capsys)[0] == 0
    assert read_tree(a) == read_tree(b)


def test_gen_zero_patients_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(["gen", "--n", "0", "--side", "8", "--out", tmp_path / "x"], capsys)
    assert code == 2
    assert "error" in err


# sizes numpy refuses at once (petabytes), so no test allocates them
@pytest.mark.parametrize("n, side", [("2", "100000"), ("100000000000000", "4")])
def test_gen_unallocatable_cohort_is_usage_error(tmp_path, capsys, n, side):
    code, pairs, err = run_cli(["gen", "--n", n, "--side", side,
                                "--out", tmp_path / "x"], capsys)
    assert code == 2
    assert not pairs
    assert_one_error_line(err)
    assert f"a cohort of {n} patients at side {side}" in err


def test_gen_bad_censor_rate(tmp_path, capsys):
    code, _, _ = run_cli(["gen", "--n", "4", "--censor-rate", "1.5",
                          "--out", tmp_path / "x"], capsys)
    assert code == 2


def assert_negative_seed_rejected(code: int, err: str, seed: int) -> None:
    assert code == 2
    assert_one_error_line(err)
    assert "seed" in err and str(seed) in err


def test_gen_negative_seed(tmp_path, capsys):
    code, _, err = run_cli(["gen", "--n", "4", "--side", "8", "--seed", "-1",
                            "--out", tmp_path / "x"], capsys)
    assert_negative_seed_rejected(code, err, -1)
    assert not (tmp_path / "x").exists()


def test_missing_required_flag_is_usage_error(capsys):
    assert run_cli(["gen", "--n", "4"], capsys)[0] == 2  # no --out
    assert run_cli(["train", "--out", "/tmp/x"], capsys)[0] == 2  # no --data


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


# README: 2 bad usage or config or an unwritable output, 3 unreadable or
# incompatible input data, 4 numerical failure
@pytest.mark.parametrize("error, code", [
    (errors.ConfigError, 2),
    (errors.OutputError, 2),
    (errors.DataFormatError, 3),
    (errors.IncompatibleInputError, 3),
    (errors.InvalidOutcomeError, 3),
    (errors.UndefinedMetricError, 3),
    (errors.UndefinedTestError, 3),
    (errors.DegenerateGroupsError, 3),
    (errors.NumericsError, 4),
    (errors.TrainingDivergedError, 4),
    (errors.ShapeError, None),
    (errors.DomainError, None),
    (errors.ContractError, None),
])
def test_error_exit_codes(error, code, tmp_path, capsys, monkeypatch):
    if code is None:  # a programming error, not a reported one
        assert not issubclass(error, errors.ReportedError)
        return
    assert error.exit_code == code

    def fail(args):
        raise error("cannot go on")

    monkeypatch.setattr(cli, "cmd_gen", fail)
    result, _, err = run_cli(["gen", "--n", "4", "--out", tmp_path / "x"], capsys)
    assert result == code
    assert err == "error: cannot go on\n"


# ---------------------------------------------------------------------------
# train


def test_train_artifacts(workspace):
    run = workspace["run"]
    assert {p.name for p in run.iterdir()} == {"model.safetensors", "report.json",
                                               "manifest.json"}
    report = json.loads((run / "report.json").read_text())
    assert len(report["folds"]) == 2
    assert report["best_fold"] in (0, 1)
    assert all("wall_clock" not in fold for fold in report["folds"])
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["run"]["command"] == "train"
    assert manifest["run"]["config"]["epochs"] == 3


def test_train_stdout_keys(workspace, tmp_path, capsys):
    code, pairs, _ = run_cli(["train", "--data", workspace["data"],
                              "--config", workspace["config"],
                              "--out", tmp_path / "run"], capsys)
    assert code == 0
    assert {"model", "folds", "best_fold", "best_val_ctd"} <= set(pairs)


def test_train_rerun_byte_identical(workspace, tmp_path, capsys):
    out = tmp_path / "again"
    code, _, _ = run_cli(["train", "--data", workspace["data"],
                          "--config", workspace["config"], "--out", out], capsys)
    assert code == 0
    assert read_tree(out) == read_tree(workspace["run"])


def test_train_missing_data_dir(tmp_path, capsys):
    code, _, _ = run_cli(["train", "--data", tmp_path / "nowhere",
                          "--out", tmp_path / "run"], capsys)
    assert code == 3


def test_train_corrupt_manifest(workspace, tmp_path, capsys):
    broken = copy_tree(workspace["data"], tmp_path / "broken")
    (broken / "manifest.json").write_text("{definitely not json")
    code, _, _ = run_cli(["train", "--data", broken, "--config", workspace["config"],
                          "--out", tmp_path / "run"], capsys)
    assert code == 3


def test_train_volume_side_mismatch(workspace, tmp_path, capsys):
    # default encoder expects side 16, the cohort is side 8
    code, _, err = run_cli(["train", "--data", workspace["data"],
                            "--out", tmp_path / "run"], capsys)
    assert code == 3
    assert "side" in err


@pytest.mark.parametrize("content", [
    "{broken",
    json.dumps({"not_a_field": 1}),
    json.dumps({"epochs": 0}),
    json.dumps({"encoder": {"bogus": 1}}),
    json.dumps({"encoder": 5}),
    json.dumps({"risk_weights": 5}),
    json.dumps({"encoder": {"volume_side": 6, "latent_grid": 3}}),
    json.dumps({"lr": float("inf")}),  # written as Infinity
    # 10**14 codebook rows: petabytes, which numpy refuses without allocating
    json.dumps({**TINY_CONFIG, "encoder": {**TINY_CONFIG["encoder"], "codebook_size": 10**14}}),
    # 10**15 time bins: petabytes of bin levels, refused the same way
    json.dumps({**TINY_CONFIG, "n_bins": 10**15}),
])
def test_train_bad_config_file(workspace, tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    code, _, err = run_cli(["train", "--data", workspace["data"], "--config", cfg,
                            "--out", tmp_path / "run"], capsys)
    assert code == 2
    assert_one_error_line(err)


def test_train_empty_cohort_is_input_error(workspace, tmp_path, capsys):
    data = copy_tree(workspace["data"], tmp_path / "data")
    _empty_cohort(data)
    code, _, err = run_cli(["train", "--data", data, "--config", workspace["config"],
                            "--out", tmp_path / "run"], capsys)
    assert code == 3
    assert_one_error_line(err)
    assert "manifest n is 0" in err
    assert "corrupt manifest:" not in err


def test_train_deeply_nested_config_exits_2(workspace, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(NESTED_JSON)
    code, _, err = run_cli(["train", "--data", workspace["data"], "--config", cfg,
                            "--out", tmp_path / "run"], capsys)
    assert code == 2
    assert_one_error_line(err)
    assert "config file is not valid JSON" in err


@pytest.mark.parametrize("damage", ["delete", "non-integer", "short row", "no column",
                                    "time_bin -3", "event 9", "duplicate id"])
def test_train_bad_outcomes_csv(workspace, tmp_path, capsys, damage):
    data = copy_tree(workspace["data"], tmp_path / "data")
    csv_path = data / "outcomes.csv"
    lines = csv_path.read_text().splitlines()
    if damage == "delete":
        csv_path.unlink()
    elif damage == "non-integer":
        csv_path.write_text("\n".join([lines[0], lines[1].replace(",", ".5,", 1)] + lines[2:]))
    elif damage == "short row":
        csv_path.write_text("\n".join([lines[0], lines[1].rsplit(",", 1)[0]] + lines[2:]))
    elif damage == "no column":
        csv_path.write_text("\n".join([lines[0].replace("time_bin", "tbin")] + lines[1:]))
    elif damage == "duplicate id":
        _set_outcome(data, "patient_id", _first_patient_id(data), row=2)
    else:
        _set_outcome(data, *damage.split())
    code, _, err = run_cli(["train", "--data", data, "--config", workspace["config"],
                            "--out", tmp_path / "run"], capsys)
    assert code == 3
    assert_one_error_line(err)


def test_train_negative_seed_in_config(workspace, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TINY_CONFIG, "seed": -1}))
    code, _, err = run_cli(["train", "--data", workspace["data"], "--config", cfg,
                            "--out", tmp_path / "run"], capsys)
    assert_negative_seed_rejected(code, err, -1)


def test_train_missing_config_file(workspace, tmp_path, capsys):
    code, _, _ = run_cli(["train", "--data", workspace["data"],
                          "--config", tmp_path / "nope.json",
                          "--out", tmp_path / "run"], capsys)
    assert code == 2


def test_train_unreadable_config_file(workspace, tmp_path, capsys, monkeypatch):
    config = workspace["config"]
    read_text = Path.read_text

    def refuse(path, *args, **kwargs):
        if path == config:
            raise PermissionError(13, "Permission denied", str(path))
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", refuse)  # root ignores file modes
    code, pairs, err = run_cli(["train", "--data", workspace["data"], "--config", config,
                                "--out", tmp_path / "run"], capsys)
    assert code == 2
    assert not pairs
    assert_one_error_line(err)
    assert f"cannot read config file {config}: Permission denied" in err


def test_train_ablation_flag_recorded(workspace, tmp_path, capsys):
    out = tmp_path / "ablated"
    code, _, err = run_cli(["train", "--data", workspace["data"],
                            "--config", workspace["config"],
                            "--out", out, "--ablate", "no-vq"], capsys)
    assert code == 0
    assert err == ""  # no codebook, no collapse warning
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["run"]["ablate"] == "no-vq"
    assert manifest["run"]["config"]["use_quantization"] is False
    model = ModelFile.read(out / "model.safetensors")
    assert model.config()["use_quantization"] is False


def test_train_warns_on_collapsed_codebooks(workspace, tmp_path, capsys):
    out = tmp_path / "run"
    code, _, err = run_cli(["train", "--data", workspace["data"],
                            "--config", workspace["config"], "--out", out], capsys)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    size = TINY_CONFIG["encoder"]["codebook_size"]
    expected = [f"warning: fold {fold['fold']} {m} codebook perplexity {h['perplexity']!r} "
                f"({h['dead_entries']} of {size} entries dead)"
                for fold in report["folds"] for m, h in fold["codebook"].items()
                if h["perplexity"] < 2]
    assert expected  # the tiny run collapses
    assert err.splitlines() == expected


def test_train_divergence_exits_4(workspace, tmp_path, capsys):
    config = tmp_path / "diverge.json"
    config.write_text(json.dumps({**TINY_CONFIG, "lr": 1e300}))
    code, _, err = run_cli(["train", "--data", workspace["data"], "--config", config,
                            "--out", tmp_path / "run"], capsys)
    assert code == 4
    assert_one_error_line(err)


# ---------------------------------------------------------------------------
# eval


def test_eval_artifacts_and_stdout(workspace, tmp_path, capsys):
    out = tmp_path / "ev"
    code, pairs, _ = run_cli(["eval", "--model", workspace["model"],
                              "--data", workspace["data"], "--out", out], capsys)
    assert code == 0
    assert {p.name for p in out.iterdir()} == {"metrics.json", "km.csv", "manifest.json"}
    metrics = json.loads((out / "metrics.json").read_text())
    assert "1" in metrics["c_td"]
    assert metrics["n_noisy"] == 0 and metrics["noise"] is None
    assert 0.0 <= float(pairs["c_td_1"]) <= 1.0
    assert 0.0 <= float(pairs["logrank_p"]) <= 1.0
    header = (out / "km.csv").read_text().splitlines()[0]
    assert header == "time,survival,at_risk,events,group"


def test_eval_zero_fraction_equals_clean(workspace, tmp_path, capsys):
    clean, zero = tmp_path / "clean", tmp_path / "zero"
    run_cli(["eval", "--model", workspace["model"], "--data", workspace["data"],
             "--out", clean], capsys)
    run_cli(["eval", "--model", workspace["model"], "--data", workspace["data"],
             "--noise-ct", "0.1", "--noise-pet", "high", "--noise-frac", "0",
             "--out", zero], capsys)
    assert (clean / "metrics.json").read_bytes() == (zero / "metrics.json").read_bytes()
    assert (clean / "km.csv").read_bytes() == (zero / "km.csv").read_bytes()


def test_eval_noise_applied_and_reproducible(workspace, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["eval", "--model", workspace["model"], "--data", workspace["data"],
            "--noise-ct", "0.1", "--noise-pet", "high", "--noise-frac", "0.5"]
    assert run_cli(argv + ["--out", a], capsys)[0] == 0
    assert run_cli(argv + ["--out", b], capsys)[0] == 0
    assert read_tree(a) == read_tree(b)
    metrics = json.loads((a / "metrics.json").read_text())
    assert metrics["n_noisy"] == 6
    assert metrics["noise"]["pet_level"] == "high"


def test_eval_negative_noise_seed(workspace, tmp_path, capsys):
    code, _, err = run_cli(["eval", "--model", workspace["model"], "--data", workspace["data"],
                            "--noise-ct", "0.1", "--noise-pet", "high", "--noise-frac", "0.5",
                            "--noise-seed", "-3", "--out", tmp_path / "x"], capsys)
    assert_negative_seed_rejected(code, err, -3)


def test_eval_invalid_noise_flags(workspace, tmp_path, capsys):
    code, _, _ = run_cli(["eval", "--model", workspace["model"],
                          "--data", workspace["data"], "--noise-pet", "ultra",
                          "--out", tmp_path / "x"], capsys)
    assert code == 2
    code, _, _ = run_cli(["eval", "--model", workspace["model"],
                          "--data", workspace["data"], "--noise-ct", "0.07",
                          "--noise-frac", "0.5", "--out", tmp_path / "x"], capsys)
    assert code == 2


def _set_meta(key: str, value):
    return lambda f: f.meta.__setitem__(key, value)


def _ragged(model: ModelFile) -> None:
    """Three float64 values under a 2 x 2 shape, as a ragged list once was."""
    model.set_arrays({**model.arrays(), "head.head_w1": np.zeros(3)})
    model.header["head.head_w1"]["shape"] = [2, 2]


def _trailing_bytes(model: ModelFile) -> None:
    model.buffer += bytes(8)
    model.reseal()


def _flip_one_value(model: ModelFile) -> None:
    """Flip one bit of the first parameter, leaving the checksum as it was."""
    model.buffer = bytes([model.buffer[0] ^ 1]) + model.buffer[1:]


def _format_2_payload(model: ModelFile) -> dict:
    """The JSON object a format-2 model file held for the same model."""
    params = {name: {"shape": list(array.shape),
                      "f64le": base64.b64encode(array.tobytes()).decode()}
              for name, array in model.arrays().items()}
    return {"format_version": 2, "config": model.config(),
            "bin_edges": json.loads(model.meta["bin_edges"]), "params": params,
            "sha256": model.meta["sha256"]}


# each edit damages one field of a model file
MODEL_EDITS = {
    "ragged-params": _ragged,
    "header-not-object": lambda f: setattr(f, "header", "@@not a header@@"),
    "dtype-key": lambda f: f.header["head.head_w1"].__setitem__("dtype", "F32"),
    "checksum": _flip_one_value,
    "negative-lr": lambda f: f.edit_config(lambda c: c.__setitem__("lr", -1)),
    "missing-field": lambda f: f.edit_config(lambda c: c.pop("epochs")),
    "encoder-not-object": lambda f: f.edit_config(lambda c: c.__setitem__("encoder", 5)),
    # the checksum covers only the parameters; a NaN edge would re-bin every outcome
    "bin-edges-nan": lambda f: f.meta.__setitem__(
        "bin_edges", json.dumps([float("nan")] + json.loads(f.meta["bin_edges"])[1:])),
    "bin-edges-decreasing": lambda f: f.meta.__setitem__(
        "bin_edges", json.dumps(json.loads(f.meta["bin_edges"])[::-1])),
    "bin-edges-bool": lambda f: f.meta.__setitem__(
        "bin_edges", json.dumps([True] + json.loads(f.meta["bin_edges"])[1:])),
    "format-version-float": _set_meta("format_version", "3.0"),
    "metadata-missing": lambda f: f.header.pop("__metadata__"),
    "metadata-not-string": _set_meta("format_version", 3),
    "config-nested-json": _set_meta("config", NESTED_JSON),
    "offsets-gap": lambda f: f.header["head.head_w1"].__setitem__(
        "data_offsets", [o + 8 for o in f.header["head.head_w1"]["data_offsets"]]),
    "trailing-bytes": _trailing_bytes,
}


@pytest.mark.parametrize("edit", MODEL_EDITS.values(), ids=MODEL_EDITS.keys())
def test_eval_bad_model_file(workspace, tmp_path, capsys, edit):
    model = ModelFile.read(workspace["model"])
    edit(model)
    bad = tmp_path / "model.safetensors"
    model.write(bad)
    code, _, err = run_cli(["eval", "--model", bad, "--data", workspace["data"],
                            "--out", tmp_path / "x"], capsys)
    assert code == 3
    assert_one_error_line(err)


def test_eval_version_1_model_names_the_format(workspace, tmp_path, capsys):
    model = ModelFile.read(workspace["model"])
    payload = _format_2_payload(model)
    payload["format_version"] = 1
    payload["params"] = {k: v.tolist() for k, v in model.arrays().items()}
    del payload["sha256"]
    old = tmp_path / "model.json"
    old.write_text(json.dumps(payload))
    code, _, err = run_cli(["eval", "--model", old, "--data", workspace["data"],
                            "--out", tmp_path / "x"], capsys)
    assert code == 3
    assert_one_error_line(err)
    assert "model format 1," in err


def test_eval_version_2_model_names_the_format(workspace, tmp_path, capsys):
    old = tmp_path / "model.json"
    old.write_text(json.dumps(_format_2_payload(ModelFile.read(workspace["model"])),
                              sort_keys=True) + "\n")
    code, _, err = run_cli(["eval", "--model", old, "--data", workspace["data"],
                            "--out", tmp_path / "x"], capsys)
    assert code == 3
    assert_one_error_line(err)
    assert "model format 2, but only format 3 can be read; retrain" in err


def test_eval_missing_model(workspace, tmp_path, capsys):
    code, _, _ = run_cli(["eval", "--model", tmp_path / "no.json",
                          "--data", workspace["data"], "--out", tmp_path / "x"], capsys)
    assert code == 3


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_unreadable_model_exits_3(workspace, tmp_path, capsys, monkeypatch, command):
    model = workspace["model"]
    read_bytes = Path.read_bytes

    def refuse(path):
        if path == model:
            raise PermissionError(13, "Permission denied", str(path))
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", refuse)
    code, _, err = _serve(command, model, workspace["data"], tmp_path / "out", capsys)
    assert code == 3
    assert_one_error_line(err)
    assert f"unreadable model file {model}" in err


def test_eval_side_mismatch(workspace, tmp_path, capsys):
    other = tmp_path / "cohort4"
    run_cli(["gen", "--n", "6", "--side", "4", "--out", other], capsys)
    code, _, _ = run_cli(["eval", "--model", workspace["model"], "--data", other,
                          "--out", tmp_path / "x"], capsys)
    assert code == 3


# ---------------------------------------------------------------------------
# sweep


def test_sweep_csv_layout(workspace, tmp_path, capsys):
    out = tmp_path / "sw"
    code, pairs, _ = run_cli(["sweep", "--model", workspace["model"],
                              "--data", workspace["data"],
                              "--fractions", "0,0.25,0.5", "--seeds", "0,1",
                              "--out", out], capsys)
    assert code == 0
    assert pairs["cells"] == "6"
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "fraction,seed,c_td"
    assert len(lines) == 7
    for line in lines[1:]:
        frac, seed, score = line.split(",")
        assert 0.0 <= float(frac) <= 0.5
        assert seed in {"0", "1"}
        assert 0.0 <= float(score) <= 1.0


def test_sweep_threads_match_sequential(workspace, tmp_path, capsys, monkeypatch):
    argv = ["sweep", "--model", workspace["model"], "--data", workspace["data"],
            "--fractions", "0,0.5", "--seeds", "0,1"]
    seq, par = tmp_path / "seq", tmp_path / "par"
    monkeypatch.setenv("ROBSURV_THREADS", "1")
    assert run_cli(argv + ["--out", seq], capsys)[0] == 0
    monkeypatch.setenv("ROBSURV_THREADS", "3")
    code, pairs, _ = run_cli(argv + ["--out", par], capsys)
    assert code == 0
    assert pairs["threads"] == "3"
    assert (seq / "sweep.csv").read_bytes() == (par / "sweep.csv").read_bytes()


def _count_predicts(monkeypatch) -> list:
    calls = []
    original = trainer.SurvivalModel.predict

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(trainer.SurvivalModel, "predict", counted)
    return calls


def test_sweep_rows_equal_evaluate(workspace, tmp_path, capsys, monkeypatch):
    calls = _count_predicts(monkeypatch)
    out = tmp_path / "sw"
    code, pairs, _ = run_cli(["sweep", "--model", workspace["model"],
                              "--data", workspace["data"], "--fractions", "0,0.3,1.0",
                              "--seeds", "0,1,2", "--out", out], capsys)
    assert code == 0 and pairs["cells"] == "9"
    # one clean prediction, one per noise seed, never one per cell
    assert len(calls) <= 1 + 3
    model = trainer.SurvivalModel.load(workspace["model"])
    cohort = load_cohort(workspace["data"])
    lines = (out / "sweep.csv").read_text().splitlines()
    cells = [(f, s) for f in (0.0, 0.3, 1.0) for s in (0, 1, 2)]
    assert len(lines) == 1 + len(cells)
    for line, (frac, seed) in zip(lines[1:], cells):
        spec = NoiseSpec(ct_sigma=0.1, pet_level="high", noisy_fraction=frac)
        score = trainer.evaluate(model, cohort, spec, noise_seed=seed).c_td[1]
        assert line == f"{frac!r},{seed},{score!r}"


def test_sweep_without_noise_predicts_once(workspace, tmp_path, capsys, monkeypatch):
    calls = _count_predicts(monkeypatch)
    code, _, _ = run_cli(["sweep", "--model", workspace["model"],
                          "--data", workspace["data"], "--fractions", "0,0.3,1.0",
                          "--seeds", "0,1,2", "--noise-ct", "0", "--noise-pet", "none",
                          "--out", tmp_path / "sw"], capsys)
    assert code == 0
    assert len(calls) == 1


def test_sweep_writes_csv_when_median_split_is_degenerate(workspace, tmp_path, capsys):
    # identical volumes give identical predictions: eval cannot split the
    # cohort into risk groups, but a sweep scores concordance only
    data = copy_tree(workspace["data"], tmp_path / "data")
    for name in ("ct", "pet"):
        first = (data / f"0_{name}.f32").read_bytes()
        for path in data.glob(f"*_{name}.f32"):
            path.write_bytes(first)
    code, _, err = run_cli(["eval", "--model", workspace["model"], "--data", data,
                            "--out", tmp_path / "ev"], capsys)
    assert code == 3
    assert_one_error_line(err)
    code, _, _ = run_cli(["sweep", "--model", workspace["model"], "--data", data,
                          "--fractions", "0", "--seeds", "0", "--out", tmp_path / "sw"], capsys)
    assert code == 0
    lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2 and 0.0 <= float(lines[1].split(",")[2]) <= 1.0


def test_sweep_bad_lists(workspace, tmp_path, capsys):
    base = ["sweep", "--model", workspace["model"], "--data", workspace["data"],
            "--out", tmp_path / "x"]
    assert run_cli(base + ["--fractions", "a,b", "--seeds", "0"], capsys)[0] == 2
    assert run_cli(base + ["--fractions", ",", "--seeds", "0"], capsys)[0] == 2
    assert run_cli(base + ["--fractions", "1.5", "--seeds", "0"], capsys)[0] == 2
    assert run_cli(base + ["--fractions", "0.5", "--seeds", "0.5"], capsys)[0] == 2


def test_sweep_negative_seed(workspace, tmp_path, capsys):
    code, _, err = run_cli(["sweep", "--model", workspace["model"], "--data", workspace["data"],
                            "--fractions", "0,0.5", "--seeds", "0,-1",
                            "--out", tmp_path / "x"], capsys)
    assert_negative_seed_rejected(code, err, -1)


def test_sweep_bad_thread_budget(workspace, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ROBSURV_THREADS", "zero")
    code, _, _ = run_cli(["sweep", "--model", workspace["model"],
                          "--data", workspace["data"], "--fractions", "0",
                          "--seeds", "0", "--out", tmp_path / "x"], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# fault injection: delete, truncate or corrupt one field of each input file


def _truncate(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def _set_outcome(data: Path, column: str, value, row: int = 1) -> None:
    path = data / "outcomes.csv"
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[row].split(",")
    fields[header.index(column)] = str(value)
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _set_voxel(path: Path, index: int, value: float) -> None:
    voxels = np.fromfile(path, dtype="<f4")
    voxels[index] = value
    voxels.tofile(path)


def _empty_cohort(data: Path) -> None:
    """A manifest ``n`` of 0 and an ``outcomes.csv`` of just its header."""
    _edit_json(data / "manifest.json", lambda p: p["cohort"].__setitem__("n", 0))
    path = data / "outcomes.csv"
    path.write_text(path.read_text().splitlines()[0] + "\n")


def _replace_with_directory(path: Path) -> None:
    path.unlink()
    path.mkdir()


def _first_patient_id(data: Path) -> str:
    return (data / "outcomes.csv").read_text().splitlines()[1].split(",")[0]


def _negate_patient_id(data: Path, row: int = 2) -> None:
    """Make the id on ``row`` negative and rename its volumes to match, so
    that only the sign is wrong; the row must not hold patient 0."""
    pid = (data / "outcomes.csv").read_text().splitlines()[row].split(",")[0]
    assert int(pid) > 0
    for modality in ("ct", "pet"):
        (data / f"{pid}_{modality}.f32").rename(data / f"-{pid}_{modality}.f32")
    _set_outcome(data, "patient_id", f"-{pid}", row=row)


# fault name -> damage applied to a copy of (cohort directory, model file)
FAULTS = {
    "manifest-delete": lambda d, m: (d / "manifest.json").unlink(),
    "manifest-truncate": lambda d, m: _truncate(d / "manifest.json"),
    "manifest-field": lambda d, m: _edit_json(
        d / "manifest.json", lambda p: p["cohort"].__setitem__("n", 99)),
    "manifest-version": lambda d, m: _edit_json(
        d / "manifest.json", lambda p: p.__setitem__("format_version", 2)),
    "manifest-directory": lambda d, m: _replace_with_directory(d / "manifest.json"),
    "manifest-nested-json": lambda d, m: (d / "manifest.json").write_text(NESTED_JSON),
    "manifest-version-bool": lambda d, m: _edit_json(
        d / "manifest.json", lambda p: p.__setitem__("format_version", True)),
    "manifest-seed-negative": lambda d, m: _edit_json(
        d / "manifest.json", lambda p: p["cohort"].__setitem__("seed", -1)),
    "manifest-side-float": lambda d, m: _edit_json(
        d / "manifest.json", lambda p: p["cohort"].__setitem__("volume_side", 8.9)),
    "manifest-seed-string": lambda d, m: _edit_json(
        d / "manifest.json", lambda p: p["cohort"].__setitem__("seed", "1")),
    "manifest-side-huge": lambda d, m: _edit_json(  # 4e15 bytes per volume
        d / "manifest.json", lambda p: p["cohort"].__setitem__("volume_side", 100_000)),
    "manifest-n-zero": lambda d, m: _empty_cohort(d),
    "outcomes-delete": lambda d, m: (d / "outcomes.csv").unlink(),
    "outcomes-truncate": lambda d, m: _truncate(d / "outcomes.csv"),
    "outcomes-duplicate-id": lambda d, m: _set_outcome(
        d, "patient_id", _first_patient_id(d), row=2),
    "outcomes-event": lambda d, m: _set_outcome(d, "event", 9),
    "outcomes-time-bin": lambda d, m: _set_outcome(d, "time_bin", -3),
    "outcomes-time-bin-huge": lambda d, m: _set_outcome(d, "time_bin", 10**30),
    "outcomes-id-negative": lambda d, m: _negate_patient_id(d),
    "outcomes-noisy": lambda d, m: _set_outcome(d, "noisy", 2),
    "volume-delete": lambda d, m: (d / "0_ct.f32").unlink(),
    "volume-truncate": lambda d, m: _truncate(d / "0_ct.f32"),
    "volume-odd-size": lambda d, m: (d / "0_ct.f32").write_bytes(b"\x00" * 13),
    "volume-directory": lambda d, m: _replace_with_directory(d / "0_pet.f32"),
    "volume-nan": lambda d, m: _set_voxel(d / "0_ct.f32", 5, np.nan),
    "volume-inf": lambda d, m: _set_voxel(d / "0_pet.f32", 5, np.inf),
    "model-delete": lambda d, m: m.unlink(),
    "model-truncate": lambda d, m: _truncate(m),
    "model-field": lambda d, m: _edit_model(m, _flip_one_value),
    "model-nested-json": lambda d, m: m.write_text(NESTED_JSON),
}


def _edit_model(path: Path, edit) -> None:
    model = ModelFile.read(path)
    edit(model)
    model.write(path)


def _damaged_copy(workspace, tmp_path: Path) -> tuple[Path, Path]:
    data = copy_tree(workspace["data"], tmp_path / "data")
    model = tmp_path / "model.safetensors"
    model.write_bytes(workspace["model"].read_bytes())
    return data, model


def _serve(command: str, model: Path, data: Path, out: Path, capsys):
    argv = [command, "--model", model, "--data", data, "--out", out]
    if command == "sweep":
        argv += ["--fractions", "0,1.0", "--seeds", "0"]
    return run_cli(argv, capsys)


@pytest.mark.parametrize("command", ["eval", "sweep"])
@pytest.mark.parametrize("fault", FAULTS)
def test_damaged_input_exits_3(workspace, tmp_path, capsys, fault, command):
    data, model = _damaged_copy(workspace, tmp_path)
    FAULTS[fault](data, model)
    code, _, err = _serve(command, model, data, tmp_path / "out", capsys)
    assert code == 3
    assert_one_error_line(err)
    if fault in ("manifest-version", "manifest-n-zero"):  # worded by the loader, not wrapped
        assert "corrupt manifest:" not in err


def test_sweep_huge_pet_voxel_is_input_error(workspace, tmp_path, capsys):
    data, model = _damaged_copy(workspace, tmp_path)
    _set_voxel(data / "0_pet.f32", 5, 3e38)  # finite, but no Poisson mean numpy can draw
    code, _, err = _serve("sweep", model, data, tmp_path / "sw", capsys)
    assert code == 3
    assert_one_error_line(err)
    assert "PET intensity" in err
    assert _serve("eval", model, data, tmp_path / "ev", capsys)[0] == 0


# ---------------------------------------------------------------------------
# outputs that cannot be written


def _no_work(*args, **kwargs):
    raise AssertionError("work started although --out cannot be created")


@pytest.mark.parametrize("where", ["file", "file/sub", "taken"])
@pytest.mark.parametrize("command", ["gen", "train", "eval", "sweep"])
def test_unwritable_out_exits_2(workspace, tmp_path, capsys, monkeypatch, command, where):
    if where != "taken":  # the directory itself cannot be made: fail before any work
        for name in ("train", "evaluate", "evaluate_sweep"):
            monkeypatch.setattr(trainer, name, _no_work)
    (tmp_path / "file").write_text("keep\n")
    written = {"gen": "manifest.json", "train": "model.safetensors", "eval": "metrics.json",
               "sweep": "sweep.csv"}[command]
    (tmp_path / "taken" / written).mkdir(parents=True)  # an output's name is a directory
    out = tmp_path / where
    argv = {
        "gen": ["gen", "--n", "6", "--side", "8"],
        "train": ["train", "--data", workspace["data"], "--config", workspace["config"]],
        "eval": ["eval", "--model", workspace["model"], "--data", workspace["data"]],
        "sweep": ["sweep", "--model", workspace["model"], "--data", workspace["data"],
                  "--fractions", "0", "--seeds", "0"],
    }[command]
    code, pairs, err = run_cli(argv + ["--out", out], capsys)
    assert code == 2
    assert not pairs
    assert_one_error_line(err)
    assert str(out) in err
    assert (tmp_path / "file").read_text() == "keep\n"


# ---------------------------------------------------------------------------
# module execution


def test_module_invocation_round_trip(tmp_path):
    out = tmp_path / "cohort"
    proc = subprocess.run(
        [sys.executable, "-m", "robsurv", "gen", "--n", "4", "--side", "8",
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "patients=4" in proc.stdout
    assert (out / "manifest.json").is_file()
