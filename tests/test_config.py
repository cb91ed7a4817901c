import pytest

from structattn.config import ConfigError, RunConfig, load_run_config

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
                "clip=nan", "clip=inf", "penalty_coeff=inf", "l2=nan", "dropout=nan"]:
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
