import argparse
import contextlib
import hashlib
import io
import json
import warnings
from dataclasses import fields, is_dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from i2vmatch.cli import LOSS_FLAG_FIELDS, RUN_FLAG_FIELDS, _load_config, build_parser, main
from i2vmatch.losses import TERM_FLAGS, LossConfig
from i2vmatch.training import (TEACHER_MODES, RunConfig, benchmark_config, canonical_json,
                               checkpoint_text, load_checkpoint)

from dataset_reader import load_dataset

# every config field a flag sets: the scalar RunConfig fields, then two LossConfig knobs
BENCHMARK = benchmark_config()
LOSS_FLAG_NAMES = ("margin", "bp_to_video")
FLAG_NAMES = tuple(f.name for f in fields(RunConfig)
                   if not is_dataclass(getattr(BENCHMARK, f.name))) + LOSS_FLAG_NAMES


def tiny_config_file(tmp_path, **over):
    cfg = {
        "synth": {"num_identities": 6, "cameras_per_identity": 2,
                  "frames_per_video": [10, 14], "input_dim": 6,
                  "occlusion_prob": 0.3, "seed": 5},
        "trunk": {"input_dim": 6, "hidden_dims": [8, 8], "output_dim": 6},
        "loss": {"num_identities": 6},
        "num_nonlocal_blocks": 1,
        "p": 2, "k": 2, "t": 2, "stride": 2,
        "epochs": 1, "batches_per_epoch": 3,
        "eval_clip_len": 8, "k_max": 6, "seed": 0,
    }
    cfg.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_synth_writes_dataset(tmp_path, capsys):
    cfg = tiny_config_file(tmp_path)
    out = tmp_path / "data.txt"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    ds = load_dataset(out)
    assert len(ds.videos) == 12
    assert "12 videos" in capsys.readouterr().out


def test_train_eval_roundtrip(tmp_path, capsys):
    cfg = tiny_config_file(tmp_path)
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(run_dir)]) == 0
    assert (run_dir / "checkpoint.txt").exists()
    log_lines = (run_dir / "train_log.jsonl").read_text().splitlines()
    assert len(log_lines) == 1 + 3  # header + one record per batch
    report_path = tmp_path / "report.json"
    code = main(["eval", "--checkpoint", str(run_dir / "checkpoint.txt"),
                 "--protocol", "I2V", "--out", str(report_path)])
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["protocol"] == "I2V"
    assert doc["format"].startswith("i2vmatch-metrics/")
    assert "config_digest" in doc and "seed" in doc
    assert len(doc["cmc"]) <= 6


def test_eval_rejects_mismatched_config(tmp_path):
    cfg = tiny_config_file(tmp_path)
    run_dir = tmp_path / "run"
    main(["train", "--config", str(cfg), "--out-dir", str(run_dir)])
    (tmp_path / "o").mkdir()
    other = tiny_config_file(tmp_path / "o", seed=9)
    code = main(["eval", "--checkpoint", str(run_dir / "checkpoint.txt"),
                 "--config", str(other)])
    assert code == 1


def test_gradcheck_losses_scope_runs_six_checks(capsys):
    assert main(["gradcheck", "--scope", "losses"]) == 0
    out = capsys.readouterr().out
    assert "all 6 checks passed" in out
    for name in ("transfer_feat", "transfer_dist", "tri_i2v", "tri_integrated",
                 "cls", "total"):
        assert name in out


def test_gradcheck_all_scope(capsys):
    assert main(["gradcheck", "--scope", "all"]) == 0
    out = capsys.readouterr().out
    assert "all 9 checks passed" in out
    assert "nonlocal_block" in out


def test_sweep_command(tmp_path, capsys):
    cfg = tiny_config_file(tmp_path)
    out = tmp_path / "rows.json"
    code = main(["sweep", "--config", str(cfg), "--axis", "T", "--values", "1,2",
                 "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    assert [r["value"] for r in rows] == [1, 2]
    printed = capsys.readouterr().out
    assert "I2V top-1" in printed


def test_export_features(tmp_path):
    cfg = tiny_config_file(tmp_path)
    run_dir = tmp_path / "run"
    main(["train", "--config", str(cfg), "--out-dir", str(run_dir)])
    out = tmp_path / "feats.txt"
    code = main(["export-features", "--checkpoint", str(run_dir / "checkpoint.txt"),
                 "--which", "both", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("i2vmatch-dataset/1 dim=6")
    assert len(lines) == 1 + 6 + 6  # header + queries + gallery
    parts = lines[1].split()
    assert parts[2] == "1" and len(parts) == 3 + 6


def test_cli_validation_failure_exit_code(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["train", "--config", str(missing), "--out-dir", str(tmp_path)]) == 1
    assert main(["eval", "--checkpoint", str(tmp_path / "nothing.txt")]) == 1


def test_cli_bad_arguments_exit_code():
    assert main(["sweep", "--axis", "bogus", "--values", "1"]) == 1
    assert main(["frobnicate"]) == 1


def test_sweep_unknown_loss_set_exits_1(capsys):
    assert main(["sweep", "--axis", "loss_set", "--values", "bogus"]) == 1
    err = capsys.readouterr().err
    assert "bogus" in err and "baseline" in err
    assert len(err.strip().splitlines()) == 1


def test_eval_rejects_header_only_checkpoint(tmp_path, capsys):
    path = tmp_path / "ckpt.txt"
    path.write_text("i2vmatch-checkpoint/1\n")
    assert main(["eval", "--checkpoint", str(path)]) == 1
    assert "malformed checkpoint header" in capsys.readouterr().err


def test_eval_rejects_empty_parameter_header(tmp_path, capsys):
    cfg = tiny_config_file(tmp_path)
    run_dir = tmp_path / "run"
    main(["train", "--config", str(cfg), "--out-dir", str(run_dir)])
    ckpt = run_dir / "checkpoint.txt"
    lines = ckpt.read_text().splitlines()
    lines[3] = ""  # the first "param" line
    ckpt.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt)]) == 1
    assert ("checkpoint line 4 reads '' where its layout puts 'param image.0.w 6 8'"
            in capsys.readouterr().err)


def test_sweep_bogus_flag_value_exits_1(capsys):
    assert main(["sweep", "--axis", "bp_to_video", "--values", "on,bogus"]) == 1
    err = capsys.readouterr().err
    assert "bogus" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_synth_rejects_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"bogus_field": 1}))
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "d.txt")]) == 1
    err = capsys.readouterr().err
    assert "bogus_field" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_synth_rejects_trunk_without_input_dim(tmp_path, capsys):
    cfg = json.loads(tiny_config_file(tmp_path).read_text())
    del cfg["trunk"]["input_dim"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "d.txt")]) == 1
    err = capsys.readouterr().err
    assert "'trunk'" in err and "input_dim" in err
    assert len(err.strip().splitlines()) == 1


def test_eval_rejects_non_finite_parameter(tmp_path, capsys):
    cfg = tiny_config_file(tmp_path)
    run_dir = tmp_path / "run"
    main(["train", "--config", str(cfg), "--out-dir", str(run_dir)])
    ckpt = run_dir / "checkpoint.txt"
    lines = ckpt.read_text().splitlines()
    first_row = lines.index("param image.0.w 6 8") + 1
    values = lines[first_row].split()
    values[2] = "nan"
    lines[first_row] = " ".join(values)
    ckpt.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert "image.0.w" in err and "non-finite" in err
    assert len(err.strip().splitlines()) == 1


def assert_one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return err


def test_config_flags_are_the_scalar_fields():
    parser = build_parser()
    args = parser.parse_args(["train", "--out-dir", "run"])
    assert len(FLAG_NAMES) == 17
    assert set(vars(args)) - {"command", "config", "out_dir", "run"} == set(FLAG_NAMES)
    # each flag takes its field's declared type; a bool field is a switch
    declared = {f.name: f.type for kind in (LossConfig, RunConfig) for f in fields(kind)}
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("synth", "train", "sweep"):
        actions = {a.dest: a for a in commands.choices[command]._actions}
        for name in FLAG_NAMES:
            action = actions[name]
            if declared[name] == "bool":
                assert (action.nargs, action.const, action.default) == (0, True, None), name
            else:
                assert (action.type or str).__name__ == declared[name], name
        assert actions["teacher_mode"].choices == TEACHER_MODES


@pytest.mark.parametrize("name", FLAG_NAMES)
def test_config_flag_sets_only_its_field(name):
    is_loss = name in LOSS_FLAG_NAMES
    default = getattr(BENCHMARK.loss if is_loss else BENCHMARK, name)
    flag = "--" + name.replace("_", "-")
    if isinstance(default, bool):
        value, argv = True, [flag]
    elif name == "teacher_mode":
        value = "pretrained"
        argv = [flag, value]
    else:
        value = default * 2 if isinstance(default, float) else default + 1
        argv = [flag, str(value)]
    got = _load_config(build_parser().parse_args(["train", "--out-dir", "run", *argv]))
    if is_loss:
        want = replace(BENCHMARK, loss=replace(BENCHMARK.loss, **{name: value}))
    else:
        want = replace(BENCHMARK, **{name: value})
    assert got == want


@pytest.mark.parametrize("flag,value", [("--margin", "nan"), ("--learning-rate", "nan"),
                                        ("--weight-decay", "inf"),
                                        ("--lr-decay-factor", "inf")])
def test_train_rejects_non_finite_flag(tmp_path, capsys, flag, value):
    cfg = tiny_config_file(tmp_path)
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg), flag, value, "--out-dir", str(run_dir)]) == 1
    assert "finite" in assert_one_error_line(capsys)
    assert not run_dir.exists()


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_train_rejects_lr_decay_every_below_one(tmp_path, capsys, source, value):
    # 0 would divide by zero in lr_at; -1 would raise the rate every epoch
    if source == "flag":
        argv = ["--config", str(tiny_config_file(tmp_path)), "--lr-decay-every", str(value)]
    else:
        argv = ["--config", str(tiny_config_file(tmp_path, lr_decay_every=value))]
    run_dir = tmp_path / "run"
    assert main(["train", *argv, "--out-dir", str(run_dir)]) == 1
    assert "lr_decay_every must be >= 1" in assert_one_error_line(capsys)
    assert not run_dir.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_train_rejects_lr_decay_factor_above_one(tmp_path, capsys, source):
    # a "decay" factor of 10 would raise the rate tenfold at every decay
    if source == "flag":
        argv = ["--config", str(tiny_config_file(tmp_path)), "--lr-decay-factor", "10"]
    else:
        argv = ["--config", str(tiny_config_file(tmp_path, lr_decay_factor=10.0))]
    run_dir = tmp_path / "run"
    assert main(["train", *argv, "--out-dir", str(run_dir)]) == 1
    assert "lr_decay_factor in (0, 1]" in assert_one_error_line(capsys)
    assert not run_dir.exists()


@pytest.mark.parametrize("flag, words", [("--k", "loss term tri_v2v needs k >= 2"),
                                         ("--p", "loss term tri_i2v needs p >= 2")])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_train_rejects_batch_shape_a_term_cannot_train(tmp_path, capsys, flag, words, source):
    # rejected when the config is built, before any dataset or sampler
    if source == "flag":
        argv = ["--config", str(tiny_config_file(tmp_path)), flag, "1"]
    else:
        argv = ["--config", str(tiny_config_file(tmp_path, **{flag[2:]: 1}))]
    run_dir = tmp_path / "run"
    assert main(["train", *argv, "--out-dir", str(run_dir)]) == 1
    assert words in assert_one_error_line(capsys)
    assert not run_dir.exists()


def test_train_k1_shape_that_trains_prints_nothing_to_stderr(tmp_path, capsys):
    # tri_i2i anchors have the other frame of their clip as a positive, and
    # RunConfig has checked that, so K=1 trains with nothing to warn about
    cfg = tiny_config_file(tmp_path, k=1, loss={"num_identities": 6, "use_v2v": False})
    run_dir = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--config", str(cfg), "--out-dir", str(run_dir)]) == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""


def _no_dataset(monkeypatch):
    def must_not_generate(cfg):
        raise AssertionError("a dataset was generated for a config that fails its checks")

    monkeypatch.setattr("i2vmatch.training.generate_dataset", must_not_generate)


def test_train_rejects_p_above_the_train_identities_before_generating(
        tmp_path, capsys, monkeypatch):
    _no_dataset(monkeypatch)
    run_dir = tmp_path / "run"
    assert main(["train", "--p", "41", "--out-dir", str(run_dir)]) == 1
    assert "p=41 exceeds the 40 train identities" in assert_one_error_line(capsys)
    assert not run_dir.exists()


def test_train_rejects_trunk_without_hidden_layer_before_generating(
        tmp_path, capsys, monkeypatch):
    _no_dataset(monkeypatch)
    cfg = tiny_config_file(tmp_path, trunk={"input_dim": 6, "hidden_dims": [],
                                            "output_dim": 6})
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out-dir", str(run_dir)]) == 1
    assert "at least one for the blocks to follow" in assert_one_error_line(capsys)
    assert not run_dir.exists()


@pytest.mark.parametrize("section,key", [(None, "learning_rate"), (None, "lr_decay_factor"),
                                         (None, "weight_decay"), ("loss", "margin")])
def test_synth_rejects_non_finite_config_value(tmp_path, capsys, section, key):
    cfg = json.loads(tiny_config_file(tmp_path).read_text())
    (cfg[section] if section else cfg)[key] = float("nan")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "d.txt")]) == 1
    assert key in assert_one_error_line(capsys)


@pytest.mark.parametrize("section,key,value", [("trunk", "hidden_dims", 5),
                                               ("synth", "frames_per_video", 7)])
def test_synth_rejects_scalar_in_tuple_field(tmp_path, capsys, section, key, value):
    cfg = json.loads(tiny_config_file(tmp_path).read_text())
    cfg[section][key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "d.txt")]) == 1
    assert "wrong type" in assert_one_error_line(capsys)


def test_synth_out_directory_exits_1(tmp_path, capsys):
    cfg = tiny_config_file(tmp_path)
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert str(tmp_path) in assert_one_error_line(capsys)


def test_eval_checkpoint_directory_exits_1(tmp_path, capsys):
    assert main(["eval", "--checkpoint", str(tmp_path)]) == 1
    assert str(tmp_path) in assert_one_error_line(capsys)


@pytest.mark.parametrize("section,key,value", [
    ("loss", "bp_to_video", "no"),
    (None, "t", 2.5),
    (None, "seed", 0.5),
    (None, "p", True),
    (None, "epochs", 1.5),
    (None, "num_nonlocal_blocks", 1.5),
    ("trunk", "output_dim", 16.5),
    (None, "eval_clip_len", 3.5),
    ("synth", "frames_per_video", [40.5, 64]),
    ("trunk", "grid_hw", [2]),
])
def test_train_rejects_config_value_of_wrong_type(tmp_path, capsys, section, key, value):
    cfg = benchmark_config().to_dict()
    (cfg[section] if section else cfg)[key] = value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    run_dir = tmp_path / "o"
    assert main(["train", "--config", str(path), "--out-dir", str(run_dir)]) == 1
    err = assert_one_error_line(capsys)
    assert key in err and "wrong type" in err
    assert not run_dir.exists()


@pytest.fixture(scope="module")
def checkpoint_lines(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("ckpt")
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(tiny_config_file(tmp_path)),
                 "--out-dir", str(run_dir)]) == 0
    return (run_dir / "checkpoint.txt").read_text().splitlines()


def _repeat_image_bias_block(lines):
    """A second ``param image.0.b`` block spliced in before ``end``."""
    start = next(i for i, line in enumerate(lines) if line.startswith("param image.0.b "))
    rows = int(lines[start].split()[2])
    return lines[:-1] + lines[start:start + 1 + rows] + ["end"]


# each edit with the line it reports, counted from the "end" line (0 is that
# line, 1 the next), the text read there and the text the layout puts
# there; the text after a file's last newline counts as an empty line
@pytest.mark.parametrize("edit, past_end, got, want", [
    (_repeat_image_bias_block, 0, "'param image.0.b 1 8'", "'end'"),
    (lambda lines: lines[:-1], 0, "''", "'end'"),
    (lambda lines: lines + ["param image.0.b 1 8"], 1, "'param image.0.b 1 8'", "''"),
], ids=["duplicate-parameter", "no-end", "text-after-end"])
def test_eval_rejects_spliced_or_truncated_checkpoint(tmp_path, capsys, checkpoint_lines,
                                                      edit, past_end, got, want):
    ckpt = tmp_path / "checkpoint.txt"
    ckpt.write_text("\n".join(edit(checkpoint_lines)) + "\n")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt)]) == 1
    line = checkpoint_lines.index("end") + 1 + past_end
    assert (f"checkpoint line {line} reads {got} where its layout puts {want}"
            in assert_one_error_line(capsys))


def _swap_first_two_blocks(lines):
    """image.0.w and image.0.b in each other's place: the same names and
    shapes, in an order the writer never writes."""
    bias = lines.index("param image.0.b 1 8")
    return lines[:3] + lines[bias:bias + 2] + lines[3:bias] + lines[bias + 2:]


def _respell_first_weight(lines):
    """The first value of image.0.w written with 17 significant digits:
    the same float, spelled as ``format_floats`` never spells it."""
    values = lines[4].split()
    values[0] = f"{float(values[0]):.16e}"
    return lines[:4] + [" ".join(values)] + lines[5:]


def _respace_config(lines):
    """The config line as ``json.dumps`` spaces it by default: the same
    config and digest, not in canonical spelling."""
    config = json.dumps(json.loads(lines[1][len("config "):]), sort_keys=True)
    return [lines[0], "config " + config, *lines[2:]]


@pytest.mark.parametrize("edit, line", [(_swap_first_two_blocks, 4),
                                        (_respell_first_weight, 5),
                                        (_respace_config, 2)],
                         ids=["reordered-blocks", "respelled-float", "respaced-config"])
def test_eval_rejects_checkpoint_the_writer_would_not_write(tmp_path, capsys,
                                                            checkpoint_lines, edit, line):
    # each holds the same parameters and config, and re-saves to other bytes
    edited = edit(checkpoint_lines)
    ckpt = tmp_path / "checkpoint.txt"
    ckpt.write_text("\n".join(edited) + "\n")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt)]) == 1
    got, want = edited[line - 1], checkpoint_lines[line - 1]
    assert (f"checkpoint line {line} reads {got!r} where its layout puts {want!r}"
            in assert_one_error_line(capsys))


@st.composite
def checkpoint_edits(draw, lines):
    """A saved checkpoint's lines after one edit: a truncation, a cut, an
    appended text, or a line deleted, repeated, swapped or re-tokened."""
    text = "\n".join(lines) + "\n"
    kind = draw(st.sampled_from(["truncate", "cut", "append", "delete", "repeat", "swap",
                                 "token"]))
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "cut":
        start = draw(st.integers(0, len(text) - 1))
        return text[:start] + text[start + draw(st.integers(1, 40)):]
    if kind == "append":
        return text + draw(st.sampled_from(["end\n", "x", "\n", "param image.0.b 1 8\n"]))
    lines = list(lines)
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "delete":
        del lines[i]
    elif kind == "repeat":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        tokens = lines[i].split(" ")
        other = draw(st.sampled_from(lines[3:])).split(" ")
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(
            other + ["nan", "inf", "1e400", "0x1p-3", "1_0", "", "param", "end", "7", "-0.0"]))
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def edit_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("edits")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_eval_loads_an_edited_checkpoint_only_as_the_writer_writes_it(
        checkpoint_lines, edit_dir, data):
    ckpt = edit_dir / "checkpoint.txt"
    ckpt.write_text(data.draw(checkpoint_edits(checkpoint_lines)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["eval", "--checkpoint", str(ckpt)])
    if code == 0:
        assert checkpoint_text(load_checkpoint(ckpt)) == ckpt.read_text()
    else:
        assert code == 1 and "Traceback" not in err.getvalue()
        assert len(err.getvalue().splitlines()) == 1


DEEP_JSON = "[" * 100_000  # deeper than the json parser can recurse


def test_synth_rejects_config_nested_too_deep(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "d.txt")]) == 1
    assert "nested too deeply" in assert_one_error_line(capsys)


def test_eval_rejects_checkpoint_config_nested_too_deep(tmp_path, capsys):
    ckpt = tmp_path / "checkpoint.txt"
    ckpt.write_text(f"i2vmatch-checkpoint/1\nconfig {DEEP_JSON}\ndigest 0\nend\n")
    assert main(["eval", "--checkpoint", str(ckpt)]) == 1
    assert "nested too deeply" in assert_one_error_line(capsys)


def _edit_first_weight_row(lines, edit):
    row = lines.index("param image.0.w 6 8") + 1
    return lines[:row] + [" ".join(edit(lines[row].split()))] + lines[row + 1:]


@pytest.mark.parametrize("edit, words", [
    (lambda values: values[:-1],
     "checkpoint line 5 holds 7 values where each row of parameter image.0.w holds 8"),
    (lambda values: ["x"] + values[1:],
     "parameter image.0.w: could not convert string to float: 'x'"),
], ids=["short-row", "non-number"])
def test_eval_names_the_line_parameter_and_token_of_a_bad_row(tmp_path, capsys,
                                                              checkpoint_lines, edit, words):
    ckpt = tmp_path / "checkpoint.txt"
    ckpt.write_text("\n".join(_edit_first_weight_row(checkpoint_lines, edit)) + "\n")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt)]) == 1
    assert words in assert_one_error_line(capsys)


@st.composite
def config_edits(draw, cfg):
    """The JSON text of ``cfg`` after one edit: a key dropped, a value
    swapped for one of another type or nested one level, the text truncated,
    or a section nested deeper than the parser can follow."""
    kind = draw(st.sampled_from(["drop", "swap", "nest", "truncate", "deep"]))
    text = json.dumps(cfg)
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "deep":
        return text.replace('"synth": ', '"synth": ' + DEEP_JSON, 1)
    cfg = json.loads(text)
    paths = [(key,) for key in cfg] + [(section, key) for section in ("synth", "trunk", "loss")
                                       for key in cfg[section]]
    *parents, key = draw(st.sampled_from(paths))
    owner = cfg[parents[0]] if parents else cfg
    if kind == "drop":
        del owner[key]
    elif kind == "swap":
        owner[key] = draw(st.sampled_from([
            v for v in ("x", [1, 2], {"a": 1}, None, True, 1.5, 3, -1)
            if type(v) is not type(owner[key])]))
    else:
        owner[key] = draw(st.sampled_from([[owner[key]], {"v": owner[key]}]))
    return json.dumps(cfg)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_synth_takes_an_edited_config_or_rejects_it_in_one_line(edit_dir, data):
    tiny = json.loads(tiny_config_file(edit_dir).read_text())
    path = edit_dir / "edited.json"
    path.write_text(data.draw(config_edits(tiny)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["synth", "--config", str(path), "--out", str(edit_dir / "d.txt")])
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 1 and "Traceback" not in err.getvalue()
        assert len(err.getvalue().splitlines()) == 1


@pytest.mark.parametrize("argv, words", [
    (["synth", "--out", "f", "--k", "abc"], "argument --k: invalid int value: 'abc'"),
    (["synth", "--out", "f", "--teacher-mode", "x"], "argument --teacher-mode: invalid choice"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    (["synth"], "the following arguments are required: --out"),
    (["synth", "--out", "f", "a\nb"], "unrecognized arguments: 'a\\nb'")])
def test_parser_errors_print_one_line_without_the_usage_block(capsys, argv, words):
    assert main(argv) == 1
    err = assert_one_error_line(capsys)
    assert err.startswith("error: i2vmatch") and words in err


def test_help_prints_usage_and_exits_0(capsys):
    assert main(["synth", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: i2vmatch synth")


CLI_VALUES = st.one_of(
    st.integers(-3, 3), st.sampled_from([2**63 - 1, 2**63, -2**63, -2**63 - 1, 10**20]),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, -0.0]), st.text())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(flag=st.sampled_from([n for n in RUN_FLAG_FIELDS + LOSS_FLAG_FIELDS
                             if n != "bp_to_video"]), value=CLI_VALUES)
def test_synth_takes_a_flag_value_or_rejects_it_in_one_line(edit_dir, flag, value):
    config = tiny_config_file(edit_dir)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["synth", "--config", str(config), "--out", str(edit_dir / "d.txt"),
                     "--" + flag.replace("_", "-"), str(value)])
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 1 and "Traceback" not in err.getvalue()
        assert len(err.getvalue().splitlines()) == 1


@pytest.mark.parametrize("axis,values", [("nonlocal_blocks", "1,9"), ("T", " , ")])
def test_sweep_rejects_bad_values_before_any_run(monkeypatch, capsys, axis, values):
    def no_train(cfg):
        raise AssertionError("a run started")

    monkeypatch.setattr("i2vmatch.training.train", no_train)
    assert main(["sweep", "--axis", axis, "--values", values]) == 1
    err = assert_one_error_line(capsys)
    assert ("num_nonlocal_blocks" if axis == "nonlocal_blocks" else axis) in err


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_gradcheck_rejects_bad_tol(capsys, tol):
    assert main(["gradcheck", "--scope", "losses", "--tol", tol]) == 1
    out, err = capsys.readouterr()
    assert out == ""  # no check ran
    assert "tol" in err and len(err.strip().splitlines()) == 1


def test_synth_rejects_negative_synth_seed(tmp_path, capsys):
    cfg = json.loads(tiny_config_file(tmp_path).read_text())
    cfg["synth"]["seed"] = -1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "d.txt")]) == 1
    assert "synth seed must be non-negative, got -1" in assert_one_error_line(capsys)


def test_train_rejects_negative_seed(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(tiny_config_file(tmp_path)), "--seed", "-1",
                 "--out-dir", str(run_dir)]) == 1
    assert "seed must be non-negative, got -1" in assert_one_error_line(capsys)
    assert not run_dir.exists()


def test_gradcheck_rejects_negative_seed(capsys):
    assert main(["gradcheck", "--seeds", "0", "-1"]) == 1
    assert "seeds must be non-negative, got [0, -1]" in assert_one_error_line(capsys)


def test_synth_reports_a_frame_count_no_memory_holds(tmp_path, capsys):
    # 10**15 frames of 6 values need 48 PB: the allocation fails at once
    cfg = json.loads(tiny_config_file(tmp_path).read_text())
    cfg["synth"]["frames_per_video"] = [10**15, 10**15]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "d.txt")]) == 1
    assert "Unable to allocate" in assert_one_error_line(capsys)


def test_train_reports_a_k_past_64_bits_in_one_line(tmp_path, capsys, monkeypatch):
    # 10**20 fits no int64: the config checks name the key before any data is generated
    _no_dataset(monkeypatch)
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(tiny_config_file(tmp_path)), "--k", str(10**20),
                 "--out-dir", str(run_dir)]) == 1
    err = assert_one_error_line(capsys)
    assert "too large to convert" in err and "run.k " in err
    assert not run_dir.exists()


def test_eval_reports_an_eval_clip_len_past_64_bits_in_one_line(tmp_path, capsys,
                                                                 checkpoint_lines):
    # train rejects the key; a checkpoint whose config holds it fails to load on it
    assert main(["train", "--config", str(tiny_config_file(tmp_path, eval_clip_len=10**20)),
                 "--out-dir", str(tmp_path / "run")]) == 1
    assert "run.eval_clip_len " in assert_one_error_line(capsys)
    cfg = json.loads(checkpoint_lines[1][len("config "):])
    config = canonical_json({**cfg, "eval_clip_len": 10**20})
    digest = hashlib.sha256(config.encode()).hexdigest()[:16]
    ckpt = tmp_path / "checkpoint.txt"
    ckpt.write_text("\n".join([checkpoint_lines[0], "config " + config, "digest " + digest,
                               *checkpoint_lines[3:]]) + "\n")
    assert main(["eval", "--checkpoint", str(ckpt)]) == 1
    err = assert_one_error_line(capsys)
    assert "too large to convert" in err and "run.eval_clip_len " in err


@pytest.mark.parametrize("section,key,value", [
    ("synth", "input_dim", 2**63), ("synth", "frames_per_video", [10, 2**63]),
    ("trunk", "hidden_dims", [8, 10**20]), ("loss", "num_identities", 2**64),
    (None, "t", 10**20), (None, "p", -2**63 - 1)])
def test_synth_names_an_extent_past_64_bits(tmp_path, capsys, monkeypatch, section, key, value):
    _no_dataset(monkeypatch)
    cfg = json.loads(tiny_config_file(tmp_path).read_text())
    (cfg[section] if section else cfg)[key] = value
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg))
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "d.txt")]) == 1
    assert f"{section or 'run'}.{key} is too large" in assert_one_error_line(capsys)


def test_ints_that_work_at_any_size_are_not_bounded(tmp_path):
    cfg = RunConfig.from_dict(json.loads(tiny_config_file(tmp_path).read_text()))
    for name in ("seed", "stride", "k_max", "epochs", "batches_per_epoch", "lr_decay_every"):
        assert getattr(replace(cfg, **{name: 10**20}), name) == 10**20
    assert replace(cfg, synth=replace(cfg.synth, seed=10**20)).synth.seed == 10**20


def test_wrong_type_message_names_the_type_not_the_value(tmp_path, capsys):
    text = tiny_config_file(tmp_path, seed="NESTED").read_text()
    path = tmp_path / "cfg.json"
    path.write_text(text.replace('"NESTED"', "[" * 400 + "]" * 400))
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "d.txt")]) == 1
    err = assert_one_error_line(capsys)
    assert "'seed'" in err and "wrong type, list" in err and len(err) < 200


def non_finite_drift_config(tmp_path, drift):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"synth": {"drift_scale": drift, "num_identities": 10},
                                "trunk": {"input_dim": 20},
                                "loss": {"num_identities": 10}}))
    return path


@pytest.mark.parametrize("command", ["synth", "train"])
@pytest.mark.parametrize("drift", [float("nan"), float("inf"), 1e308],
                         ids=["nan", "inf", "overflow"])
def test_non_finite_synthetic_frames_exit_1(tmp_path, capsys, command, drift):
    # json accepts NaN and Infinity, which the config rejects; 1e308 is
    # finite but overflows to inf in the drift, which the video check rejects
    path = non_finite_drift_config(tmp_path, drift)
    out = tmp_path / "out"
    argv = (["synth", "--config", str(path), "--out", str(out)] if command == "synth" else
            ["train", "--config", str(path), "--epochs", "1", "--batches-per-epoch", "2",
             "--out-dir", str(out)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert [str(w.message) for w in caught] == []
    err = assert_one_error_line(capsys)
    assert err.startswith("error:") and "Warning" not in err
    if drift == 1e308:
        assert "identity 0 camera 0" in err and "non-finite" in err
    else:
        assert "drift_scale must be finite and non-negative" in err
    assert not out.exists()


@pytest.mark.parametrize("drift", [float("nan"), 1e308], ids=["nan", "overflow"])
def test_failed_train_leaves_no_out_dir(tmp_path, capsys, drift):
    out = tmp_path / "runs" / "fresh"
    argv = ["train", "--config", str(non_finite_drift_config(tmp_path, drift)),
            "--epochs", "1", "--batches-per-epoch", "2", "--out-dir", str(out)]
    assert main(argv) == 1
    assert_one_error_line(capsys)
    assert not (tmp_path / "runs").exists()


def test_train_non_finite_update_exits_2_without_a_run_dir(tmp_path, capsys):
    # benchmark defaults; the first update at a learning rate of 1e308 overflows
    out = tmp_path / "run"
    argv = ["train", "--learning-rate", "1e308", "--epochs", "1", "--batches-per-epoch", "2",
            "--out-dir", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = assert_one_error_line(capsys)
    assert "non-finite parameters" in err and "epoch 0 batch 0" in err
    assert not out.exists()


@pytest.fixture(scope="module")
def overflowing_checkpoint(tmp_path_factory):
    # one batch at a learning rate of 1e300 leaves finite parameters whose
    # features overflow
    run_dir = tmp_path_factory.mktemp("overflow") / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--learning-rate", "1e300", "--epochs", "1",
                     "--batches-per-epoch", "1", "--out-dir", str(run_dir)]) == 0
    return run_dir / "checkpoint.txt"


@pytest.mark.parametrize("argv,names", [
    (["train", "--learning-rate", "1e300", "--epochs", "1", "--batches-per-epoch", "2",
      "--out-dir", "{dir}/run"], "at epoch 0 batch 1; clip provenance: "),
    (["eval", "--checkpoint", "{ckpt}", "--protocol", "I2V"], "query image features: "),
    (["eval", "--checkpoint", "{ckpt}", "--protocol", "I2I"], "query image features: "),
    (["eval", "--checkpoint", "{ckpt}", "--protocol", "V2V"], "query video features: "),
    (["export-features", "--checkpoint", "{ckpt}", "--out", "{dir}/f.txt"],
     "query image features: "),
], ids=["train", "eval-I2V", "eval-I2I", "eval-V2V", "export-features"])
def test_numpy_floating_point_error_exits_2_in_one_line(tmp_path, capsys, overflowing_checkpoint,
                                                         argv, names):
    argv = [a.format(dir=tmp_path, ckpt=overflowing_checkpoint) for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = assert_one_error_line(capsys)
    assert err.startswith("numerical failure: ") and names in err
    assert "encountered in" in err


@pytest.mark.parametrize("nested", [False, True], ids=["file", "under_file"])
def test_train_out_dir_in_the_way_of_a_file_exits_1_before_training(
        tmp_path, capsys, monkeypatch, nested):
    blocker = tmp_path / "afile"
    blocker.write_text("kept\n")
    out = blocker / "run" if nested else blocker

    def must_not_train(cfg):
        raise AssertionError("train ran although --out-dir cannot become a directory")

    monkeypatch.setattr("i2vmatch.cli.train", must_not_train)
    cfg = tiny_config_file(tmp_path)
    assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 1
    err = assert_one_error_line(capsys)
    assert str(blocker) in err and "not a directory" in err
    assert blocker.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "config.json"]


@st.composite
def consistent_configs(draw) -> dict:
    """A config whose parts agree where ``RunConfig`` requires it: the
    trunk's frame vector is the dataset's and the classifier has one class
    per train identity. The rest is drawn freely, so a draw may still ask
    for a batch shape or learning rate that cannot train."""
    identities = draw(st.integers(3, 8))
    held_out = draw(st.one_of(st.none(), st.integers(2, max(2, identities - 2))))
    train_ids = identities - held_out if held_out else identities
    grid = draw(st.booleans())
    grid_hw = [draw(st.integers(1, 2)), draw(st.integers(1, 2))] if grid else [1, 1]
    input_dim = draw(st.integers(1, 4))
    lo = draw(st.integers(1, 12))
    flags = {flag: draw(st.booleans()) for flag in TERM_FLAGS.values()}
    flags[draw(st.sampled_from(sorted(flags)))] = True
    return {
        "synth": {"num_identities": identities, "num_eval_identities": held_out,
                  "cameras_per_identity": draw(st.integers(2, 3)),
                  "frames_per_video": [lo, lo + draw(st.integers(0, 8))],
                  "input_dim": input_dim * grid_hw[0] * grid_hw[1],
                  "seed": draw(st.integers(0, 3))},
        "trunk": {"input_dim": input_dim, "use_spatial_grid": grid, "grid_hw": grid_hw,
                  "hidden_dims": draw(st.lists(st.integers(1, 6), min_size=1, max_size=2)),
                  "output_dim": draw(st.integers(1, 6))},
        "loss": {"num_identities": train_ids, "margin": draw(st.sampled_from([0.0, 0.3])),
                 "bp_to_video": draw(st.booleans()), **flags},
        "num_nonlocal_blocks": draw(st.integers(0, 2)),
        "p": draw(st.integers(2, 4)), "k": draw(st.integers(1, 3)),
        "t": draw(st.integers(1, 4)), "stride": draw(st.integers(1, 5)),
        "epochs": 1, "batches_per_epoch": draw(st.integers(1, 3)),
        "learning_rate": draw(st.sampled_from([1e-3, 1e3, 1e300])),
        "teacher_mode": draw(st.sampled_from(TEACHER_MODES)),
        "eval_clip_len": draw(st.integers(1, 10)), "k_max": draw(st.integers(1, 8)),
        "seed": draw(st.integers(0, 3)),
    }


def _run_cli(*argv: str) -> int:
    """``main(argv)``; it warns nothing, and a failure prints exactly one line
    and no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(list(argv))
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code in (1, 2) and "Traceback" not in err.getvalue(), err.getvalue()
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
    return code


@settings(max_examples=600, deadline=None, derandomize=True)
@given(cfg=consistent_configs(), protocol=st.sampled_from(["I2V", "I2I", "V2V"]),
       which=st.sampled_from(["query", "gallery", "both"]))
def test_train_then_eval_and_export_exit_cleanly(edit_dir, cfg, protocol, which):
    config = edit_dir / "consistent.json"
    config.write_text(json.dumps(cfg))
    run = edit_dir / "run"
    if _run_cli("train", "--config", str(config), "--out-dir", str(run)) == 0:
        ckpt = str(run / "checkpoint.txt")
        _run_cli("eval", "--checkpoint", ckpt, "--protocol", protocol)
        _run_cli("export-features", "--checkpoint", ckpt, "--which", which,
                 "--out", str(edit_dir / "features.txt"))
