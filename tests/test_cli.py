"""Command line behavior: artifacts, exit codes, reproducibility."""

import base64
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from robsurv import cli, trainer
from robsurv.synthdata import NoiseSpec, load_cohort

TINY_CONFIG = {
    "encoder": {"volume_side": 8, "latent_grid": 2, "latent_dim": 6, "codebook_size": 8},
    "fusion": {"d_model": 16, "d_k": 8, "n_heads": 2, "patch_size": 2,
               "channel_reduction": 2, "d_fused": 12},
    "epochs": 3, "batch_size": 4, "folds": 2, "n_bins": 5, "seed": 1,
}


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
            "model": run / "model.json"}


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


def test_gen_bad_censor_rate(tmp_path, capsys):
    code, _, _ = run_cli(["gen", "--n", "4", "--censor-rate", "1.5",
                          "--out", tmp_path / "x"], capsys)
    assert code == 2


def test_missing_required_flag_is_usage_error(capsys):
    assert run_cli(["gen", "--n", "4"], capsys)[0] == 2  # no --out
    assert run_cli(["train", "--out", "/tmp/x"], capsys)[0] == 2  # no --data


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# train


def test_train_artifacts(workspace):
    run = workspace["run"]
    assert {p.name for p in run.iterdir()} == {"model.json", "report.json", "manifest.json"}
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
])
def test_train_bad_config_file(workspace, tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    code, _, err = run_cli(["train", "--data", workspace["data"], "--config", cfg,
                            "--out", tmp_path / "run"], capsys)
    assert code == 2
    assert_one_error_line(err)


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


def test_train_missing_config_file(workspace, tmp_path, capsys):
    code, _, _ = run_cli(["train", "--data", workspace["data"],
                          "--config", tmp_path / "nope.json",
                          "--out", tmp_path / "run"], capsys)
    assert code == 2


def test_train_ablation_flag_recorded(workspace, tmp_path, capsys):
    out = tmp_path / "ablated"
    code, _, _ = run_cli(["train", "--data", workspace["data"],
                          "--config", workspace["config"],
                          "--out", out, "--ablate", "no-vq"], capsys)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["run"]["ablate"] == "no-vq"
    assert manifest["run"]["config"]["use_quantization"] is False
    model = json.loads((out / "model.json").read_text())
    assert model["config"]["use_quantization"] is False


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


def test_eval_invalid_noise_flags(workspace, tmp_path, capsys):
    code, _, _ = run_cli(["eval", "--model", workspace["model"],
                          "--data", workspace["data"], "--noise-pet", "ultra",
                          "--out", tmp_path / "x"], capsys)
    assert code == 2
    code, _, _ = run_cli(["eval", "--model", workspace["model"],
                          "--data", workspace["data"], "--noise-ct", "0.07",
                          "--noise-frac", "0.5", "--out", tmp_path / "x"], capsys)
    assert code == 2


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode()


def _reseal(payload: dict) -> None:
    """Recompute the checksum, so that an edit leaves exactly one fault."""
    digest = hashlib.sha256()
    for name in sorted(payload["params"]):
        digest.update(base64.b64decode(payload["params"][name]["f64le"]))
    payload["sha256"] = digest.hexdigest()


def _with_entry(name: str, entry: dict):
    def edit(payload):
        payload["params"][name] = entry
        _reseal(payload)
    return edit


def _flip_one_value(payload):
    entry = payload["params"]["head.head_w1"]
    raw = bytearray(base64.b64decode(entry["f64le"]))
    raw[0] ^= 1
    entry["f64le"] = _b64(bytes(raw))


# each edit damages one field of a format-2 model.json
MODEL_EDITS = {
    # three float64 values under a 2 x 2 shape, as a ragged list once was
    "ragged-params": _with_entry("head.head_w1", {"shape": [2, 2], "f64le": _b64(bytes(24))}),
    "bad-base64": lambda p: p["params"]["head.head_w1"].__setitem__("f64le", "@@not base64@@"),
    "dtype-key": lambda p: p["params"]["head.head_w1"].__setitem__(
        "f32le", p["params"]["head.head_w1"].pop("f64le")),
    "checksum": _flip_one_value,
    "negative-lr": lambda p: p["config"].__setitem__("lr", -1),
    "missing-field": lambda p: p["config"].pop("epochs"),
    "encoder-not-object": lambda p: p["config"].__setitem__("encoder", 5),
    # the checksum covers only the parameters; a NaN edge would re-bin every outcome
    "bin-edges-nan": lambda p: p["bin_edges"].__setitem__(0, float("nan")),
    "bin-edges-decreasing": lambda p: p["bin_edges"].reverse(),
    "format-version-float": lambda p: p.__setitem__("format_version", 2.0),
}


@pytest.mark.parametrize("edit", MODEL_EDITS.values(), ids=MODEL_EDITS.keys())
def test_eval_bad_model_file(workspace, tmp_path, capsys, edit):
    payload = json.loads(workspace["model"].read_text())
    edit(payload)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(payload))
    code, _, err = run_cli(["eval", "--model", bad, "--data", workspace["data"],
                            "--out", tmp_path / "x"], capsys)
    assert code == 3
    assert_one_error_line(err)


def test_eval_version_1_model_names_the_format(workspace, tmp_path, capsys):
    payload = json.loads(workspace["model"].read_text())
    payload["format_version"] = 1
    payload["params"] = {k: np.zeros(v["shape"]).tolist() for k, v in payload["params"].items()}
    del payload["sha256"]
    old = tmp_path / "model.json"
    old.write_text(json.dumps(payload))
    code, _, err = run_cli(["eval", "--model", old, "--data", workspace["data"],
                            "--out", tmp_path / "x"], capsys)
    assert code == 3
    assert_one_error_line(err)
    assert "model format 1," in err


def test_eval_missing_model(workspace, tmp_path, capsys):
    code, _, _ = run_cli(["eval", "--model", tmp_path / "no.json",
                          "--data", workspace["data"], "--out", tmp_path / "x"], capsys)
    assert code == 3


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


def test_sweep_bad_lists(workspace, tmp_path, capsys):
    base = ["sweep", "--model", workspace["model"], "--data", workspace["data"],
            "--out", tmp_path / "x"]
    assert run_cli(base + ["--fractions", "a,b", "--seeds", "0"], capsys)[0] == 2
    assert run_cli(base + ["--fractions", ",", "--seeds", "0"], capsys)[0] == 2
    assert run_cli(base + ["--fractions", "1.5", "--seeds", "0"], capsys)[0] == 2
    assert run_cli(base + ["--fractions", "0.5", "--seeds", "0.5"], capsys)[0] == 2


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


def _first_patient_id(data: Path) -> str:
    return (data / "outcomes.csv").read_text().splitlines()[1].split(",")[0]


# fault name -> damage applied to a copy of (cohort directory, model.json)
FAULTS = {
    "manifest-delete": lambda d, m: (d / "manifest.json").unlink(),
    "manifest-truncate": lambda d, m: _truncate(d / "manifest.json"),
    "manifest-field": lambda d, m: _edit_json(
        d / "manifest.json", lambda p: p["cohort"].__setitem__("n", 99)),
    "manifest-version": lambda d, m: _edit_json(
        d / "manifest.json", lambda p: p.__setitem__("format_version", 2)),
    "manifest-version-bool": lambda d, m: _edit_json(
        d / "manifest.json", lambda p: p.__setitem__("format_version", True)),
    "outcomes-delete": lambda d, m: (d / "outcomes.csv").unlink(),
    "outcomes-truncate": lambda d, m: _truncate(d / "outcomes.csv"),
    "outcomes-duplicate-id": lambda d, m: _set_outcome(
        d, "patient_id", _first_patient_id(d), row=2),
    "outcomes-event": lambda d, m: _set_outcome(d, "event", 9),
    "outcomes-time-bin": lambda d, m: _set_outcome(d, "time_bin", -3),
    "outcomes-noisy": lambda d, m: _set_outcome(d, "noisy", 2),
    "volume-delete": lambda d, m: (d / "0_ct.f32").unlink(),
    "volume-truncate": lambda d, m: _truncate(d / "0_ct.f32"),
    "volume-nan": lambda d, m: _set_voxel(d / "0_ct.f32", 5, np.nan),
    "volume-inf": lambda d, m: _set_voxel(d / "0_pet.f32", 5, np.inf),
    "model-delete": lambda d, m: m.unlink(),
    "model-truncate": lambda d, m: _truncate(m),
    "model-field": lambda d, m: _edit_json(m, _flip_one_value),
}


def _damaged_copy(workspace, tmp_path: Path) -> tuple[Path, Path]:
    data = copy_tree(workspace["data"], tmp_path / "data")
    model = tmp_path / "model.json"
    model.write_bytes(workspace["model"].read_bytes())
    return data, model


def _serve(command: str, model: Path, data: Path, out: Path, capsys):
    argv = [command, "--model", model, "--data", data, "--out", out]
    if command == "sweep":
        argv += ["--fractions", "0,1.0", "--seeds", "0"]
    return run_cli(argv, capsys)


@pytest.mark.parametrize("command", ["eval", "sweep"])
@pytest.mark.parametrize("fault", FAULTS.values(), ids=FAULTS.keys())
def test_damaged_input_exits_3(workspace, tmp_path, capsys, fault, command):
    data, model = _damaged_copy(workspace, tmp_path)
    fault(data, model)
    code, _, err = _serve(command, model, data, tmp_path / "out", capsys)
    assert code == 3
    assert_one_error_line(err)


def test_sweep_huge_pet_voxel_is_input_error(workspace, tmp_path, capsys):
    data, model = _damaged_copy(workspace, tmp_path)
    _set_voxel(data / "0_pet.f32", 5, 3e38)  # finite, but no Poisson mean numpy can draw
    code, _, err = _serve("sweep", model, data, tmp_path / "sw", capsys)
    assert code == 3
    assert_one_error_line(err)
    assert "PET intensity" in err
    assert _serve("eval", model, data, tmp_path / "ev", capsys)[0] == 0


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
