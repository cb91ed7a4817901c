import re
from collections import Counter

import pytest

from structattn.config import ConfigError, RunConfig, load_run_config

from support import CONFIG_DIR, single_edits

MINIMAL = "d = 8\nu = 8\nd_a = 8\nr = 2\nhead = dense\nclasses = 2\n"


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_minimal(tmp_path):
    cfg = load_run_config(write(tmp_path, MINIMAL))
    assert (cfg.d, cfg.u, cfg.head, cfg.classes) == (8, 8, "dense", 2)
    assert cfg.learning_rate == 0.06  # default


def test_comments_and_blank_lines(tmp_path):
    cfg = load_run_config(write(tmp_path, "# top\n\n" + MINIMAL + "b = 32  # inline\n"))
    assert cfg.b == 32


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key"):
        load_run_config(write(tmp_path, MINIMAL + "banana = 1\n"))


def test_missing_required_key(tmp_path):
    with pytest.raises(ConfigError, match="missing required"):
        load_run_config(write(tmp_path, "d = 8\nu = 8\n"))


def test_overrides_win_over_file(tmp_path):
    cfg = load_run_config(write(tmp_path, MINIMAL), ["r=7", "learning_rate=0.5"])
    assert cfg.r == 7 and cfg.learning_rate == 0.5


def test_clip_none(tmp_path):
    cfg = load_run_config(write(tmp_path, MINIMAL + "clip = none\n"))
    assert cfg.clip is None


def test_bool_parsing(tmp_path):
    assert load_run_config(write(tmp_path, MINIMAL + "lowercase = true\n")).lowercase is True
    assert load_run_config(write(tmp_path, MINIMAL + "lowercase = no\n")).lowercase is False
    with pytest.raises(ConfigError, match="bad value"):
        load_run_config(write(tmp_path, MINIMAL + "lowercase = maybe\n"))


def test_bad_number_reports_key(tmp_path):
    with pytest.raises(ConfigError, match="bad value for r"):
        load_run_config(write(tmp_path, MINIMAL.replace("r = 2", "r = two")))


def test_bad_head_kind(tmp_path):
    with pytest.raises(ConfigError, match="head must be one of"):
        load_run_config(write(tmp_path, MINIMAL.replace("head = dense", "head = giant")))


def test_pair_head_defaults_drop_regularization(tmp_path):
    text = MINIMAL.replace("head = dense", "head = gated-pair")
    cfg = load_run_config(write(tmp_path, text))
    assert cfg.dropout == 0.0 and cfg.l2 == 0.0
    cfg = load_run_config(write(tmp_path, text + "dropout = 0.3\nl2 = 0.01\n"))
    assert cfg.dropout == 0.3 and cfg.l2 == 0.01


def test_dense_head_keeps_regularization_defaults(tmp_path):
    cfg = load_run_config(write(tmp_path, MINIMAL))
    assert cfg.dropout == 0.5 and cfg.l2 == 0.0001


def test_validation_bounds(tmp_path):
    for bad in ["learning_rate=0", "penalty_coeff=-1", "clip=0", "dropout=1.0", "batch_size=0",
                "l2=-1", "vocab_size=-5", "vocab_size=0", "learning_rate=nan", "learning_rate=inf",
                "clip=nan", "clip=inf", "penalty_coeff=inf", "l2=nan", "dropout=nan", "patience=0",
                "patience=-3", "seed=-1", "min_count=0", "clip=", "learning_rate=none", "r=7.0",
                "lowercase=2"]:
        with pytest.raises(ConfigError):
            load_run_config(write(tmp_path, MINIMAL), [bad])


def test_stored_non_finite_value_rejected():
    good = RunConfig(d=4, u=4, d_a=4, r=2, head="dense", classes=2).validate().to_dict()
    for key in ("learning_rate", "penalty_coeff", "l2", "clip"):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            RunConfig.from_dict({**good, key: float("nan")})


def test_dict_round_trip():
    cfg = RunConfig(d=4, u=4, d_a=4, r=2, head="dense", classes=2).validate()
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


def test_from_dict_rejects_unknown():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"nope": 1})


def test_malformed_line(tmp_path):
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        load_run_config(write(tmp_path, MINIMAL + "justaword\n"))


def test_every_single_edit_of_a_config_line_is_a_config_or_a_config_error(tmp_path):
    """Each one-character edit of a line of ``configs/toy.cfg`` loads as a
    validated config that survives a checkpoint's round trip, or is a
    ``ConfigError``; no other exception escapes."""
    path = tmp_path / "run.cfg"
    outcomes = Counter()
    for text in single_edits((CONFIG_DIR / "toy.cfg").read_text(encoding="utf-8")):
        path.write_text(text, encoding="utf-8")
        try:
            cfg = load_run_config(path)
        except ConfigError:
            outcomes["error"] += 1
            continue
        assert RunConfig.from_dict(cfg.to_dict()) == cfg
        outcomes["config"] += 1
    assert outcomes["config"] > 0 and outcomes["error"] > 0
    assert sum(outcomes.values()) == 9625


@pytest.mark.parametrize("key", ["d", "u", "d_a", "r", "head", "classes"])
def test_from_dict_names_a_dropped_required_key(key):
    values = RunConfig(d=4, u=4, d_a=4, r=2, head="dense", classes=2).validate().to_dict()
    del values[key]
    with pytest.raises(ConfigError, match=re.escape(f"missing required config keys: ['{key}']")):
        RunConfig.from_dict(values)


@pytest.mark.parametrize("lines", [0, 5000], ids=["first-line", "after-5000-lines"])
def test_bytes_that_are_not_utf8_are_a_config_error_naming_the_file(tmp_path, lines):
    path = tmp_path / "run.cfg"
    path.write_bytes(MINIMAL.encode("utf-8") + b"# padding\n" * lines + b"b = 3\xff\n")
    bad_line = MINIMAL.count("\n") + lines + 1
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:{bad_line}: not UTF-8 text$"):
        load_run_config(path)

