"""Flat key=value run configuration shared by the CLI commands.

A config file holds ``key = value`` lines ('#' starts a comment); command-line
``--set key=value`` overrides win over file values. Unknown keys are rejected,
and a handful of structural keys have no defaults and must be provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

HEAD_KINDS = ("dense", "pruned", "gated-pair")

# No sensible defaults exist for these; every run must pin them.
REQUIRED_KEYS = ("d", "u", "d_a", "r", "head", "classes")


class ConfigError(Exception):
    pass


# Declared field type -> accepted Python types (values may come from JSON).
_FIELD_TYPES = {"int": int, "float": (int, float), "float | None": (int, float, type(None)),
                "bool": bool, "str": str}


@dataclass
class RunConfig:
    # model
    d: int = 0
    u: int = 0
    d_a: int = 0
    r: int = 0
    head: str = ""
    classes: int = 0
    b: int = 2000
    p: int = 150
    q: int = 10
    k: int = 300
    # training
    optimizer: str = "sgd"
    learning_rate: float = 0.06
    batch_size: int = 16
    penalty_coeff: float = 1.0
    dropout: float = 0.5
    l2: float = 0.0001
    clip: float | None = 0.5
    max_epochs: int = 100
    patience: int = 10
    seed: int = 42
    # data
    min_count: int = 1
    lowercase: bool = False
    vocab_size: int = 10000  # used only when no corpus is loaded (parameter audits)
    # paths
    train_path: str = ""
    dev_path: str = ""
    embeddings_path: str = ""
    checkpoint_path: str = "model.ckpt"
    history_path: str = "history.csv"

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # bool is an int subclass, but a flag is never a count or a rate.
            if not isinstance(value, _FIELD_TYPES[f.type]) or (isinstance(value, bool) and f.type != "bool"):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
            # NaN and inf slip past every bound below; None is only ``clip = none``.
            if f.type.startswith("float") and value is not None and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.head not in HEAD_KINDS:
            raise ConfigError(f"head must be one of {HEAD_KINDS}, got {self.head!r}")
        if self.optimizer not in ("sgd", "adagrad"):
            raise ConfigError(f"optimizer must be sgd or adagrad, got {self.optimizer!r}")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.penalty_coeff < 0:
            raise ConfigError("penalty_coeff must be >= 0")
        if self.l2 < 0:
            raise ConfigError("l2 must be >= 0")
        if self.clip is not None and self.clip <= 0:
            raise ConfigError("clip must be > 0 or none")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        for key in ("d", "u", "d_a", "r", "classes", "b", "p", "q", "k", "batch_size", "max_epochs",
                    "patience", "min_count", "vocab_size"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        return self

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d):
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d).validate()


def _coerce(key, raw):
    raw = raw.strip()
    kind = {f.name: f.type for f in fields(RunConfig)}[key]
    try:
        if key == "clip":
            return None if raw.lower() == "none" else float(raw)
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r}") from None


def parse_assignments(lines, source):
    """Parse ``key = value`` pairs, rejecting unknown keys."""
    known = {f.name for f in fields(RunConfig)}
    out = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in known:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        out[key] = _coerce(key, raw)
    return out


def load_run_config(path=None, overrides=()):
    """Build a RunConfig from an optional file plus ``key=value`` overrides."""
    values = {}
    provided = set()
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                values.update(parse_assignments(fh, str(path)))
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        provided.update(values)
    override_values = parse_assignments(list(overrides), "--set")
    values.update(override_values)
    provided.update(override_values)

    cfg = RunConfig()
    for key, value in values.items():
        setattr(cfg, key, value)
    # Pair-task regime trains without extra regularization unless asked for.
    if cfg.head == "gated-pair":
        if "dropout" not in provided:
            cfg.dropout = 0.0
        if "l2" not in provided:
            cfg.l2 = 0.0
    missing = [key for key in REQUIRED_KEYS if key not in provided]
    if missing:
        raise ConfigError(f"missing required config keys: {missing}")
    return cfg.validate()
