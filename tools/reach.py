"""The lines of ``src/structattn`` that no command run reaches.

A census under ``sys.settrace`` (and ``threading.settrace`` for helper
threads) in two passes. Pass A is the commands' own traffic: the import of
the package, the seeded toy session of ``output_digests.py``, ``params`` on
every config, the op checks, and ``gradcheck`` for each head at
``configs/gradcheck.cfg`` with small head sizes. Pass B runs the benchmark's
``run_cycle`` once per workload at the smoke sizes of perfbench's own tests.

Prints each executable line (by ``co_lines``) that pass A does not reach as
``file:function: source text``, without line numbers, so an unrelated edit
does not move the output. The lines are split into those that only pass B
reaches and those that nothing reaches; within each part, every line sits
under one of the four kinds of ``KINDS`` and a group that says why it is
kept (``RULES``). A line of no kind is printed under "unexplained", and the
exit status is then 1. Toy shapes start no helper thread, so the output is
the same bytes at any BLAS thread count and on any number of cores. The
counts go to stderr. ``reach.txt`` beside this file holds the recorded
output; a change that reaches other lines records them:

    python tools/reach.py > tools/reach.txt

The same file is a pytest plugin that checks the tests ``reach.txt`` names.
It traces the suite in process, then fails the run unless some test reaches
every line grouped under "in-process tests", and the named test reaches
every line grouped under a test id (lines grouped under a child process or
a reason are not checked). It takes about twice the suite's time:

    PYTHONPATH=src:tools python -m pytest -q -p reach
"""

import ast
import contextlib
import io
import os
import sys
import tempfile
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "structattn"
RECORDED = ROOT / "tools" / "reach.txt"
for path in (ROOT / "src", ROOT / "tools", ROOT / "perfbench", ROOT / "perfbench" / "tests"):
    sys.path.insert(0, str(path))

GRADCHECK_HEADS = [["--set", "head=dense"],
                   ["--set", "head=pruned", "--set", "p=3", "--set", "q=2"],
                   ["--set", "head=gated-pair", "--set", "k=4"]]
BENCH_SEED = 3

KINDS = {
    1: "error paths (a raise statement, an except body, or a line named here) that a test reaches",
    2: "named reference paths, which tests hold the model's ops against",
    3: "kept only for the benchmark's names: perfbench calls or wraps them (ROADMAP item 12 step 3)",
    4: "guards that real inputs reach only at shapes or inputs the census does not run",
}
ANY_TEST = "in-process tests"
PASS_B, NOTHING = "reached only by the benchmark (pass B)", "reached by nothing"

WORKLOADS = "perfbench/workloads.py calls it"
PADDING = "perfbench/workloads.py _check_padding encodes padded sentences with their mask"
TRACER = "perfbench/tracer.py wraps it by name"
PAD_RATIO = "perfbench/tracer.py's data.pad_ratio reads the batches' mask views"
MEMORY = "child process: tests/test_cli.py::TestTrainCommand::test_a_model_too_big_for_memory_is_an_error"
WARNINGS = ("child process: "
            "tests/test_cli.py::TestTrainCommand::test_a_run_that_does_not_diverge_shows_its_warnings")
CLI_ENTRY = "child process: tests/test_cli.py::test_entry_point_subprocess"
SYNTH_ENTRY = "child process: tests/test_cli.py::test_synth_entry_point_subprocess"
UNIFORM = "tests/test_tensor.py::TestUniform::test_glorot_equals_one_whole_array_draw"
EMPTY_LINES = "tests/test_data.py::TestReadSentences::test_token_lists_with_empty_lines_skipped"

# (kind, group, "file:function", the source texts of the lines, or None for
# every line of the function that is no error line); see ``classify``
RULES = [
    (1, MEMORY, "cli.py:main", ("except MemoryError as exc:  # numpy's failed allocations, in the calling thread "
                                "or a helper", 'print(f"error: out of memory: {exc}", file=sys.stderr)')),
    (1, WARNINGS, "cli.py:_warnings_unless_diverged", ("show(*shown)",)),
    (1, CLI_ENTRY, "cli.py:", ("main_entry()",)),
    (1, CLI_ENTRY, "cli.py:main_entry", ("raise SystemExit(main())",)),
    (1, SYNTH_ENTRY, "synth.py:", ("raise SystemExit(main())",)),
    # the scan that names a repeated token, which then raises
    (1, ANY_TEST, "data.py:Vocab.__init__", ("seen = {}", "for i, tok in enumerate(self.id_to_token):",
                                              "if tok in seen:", "seen[tok] = i")),
    (2, "checks.attend_vector: the single-hop attention that tests hold attention.attend against",
     "checks.py:attend_vector", None),
    (3, WORKLOADS, "data.py:corpus_tokens", None),
    (3, WORKLOADS, "viz.py:render_html.<genexpr>", None),
    (3, WORKLOADS, "viz.py:render_csv.<genexpr>", None),
    (3, WORKLOADS, "viz.py:render_embedding_csv", None),
    (3, PADDING, "model.py:_real_ids", None),
    (3, PADDING, "model.py:Classifier.encode", ("a = T.concat([a, T.zeros((a.shape[0], n_pad), a.dtype)], axis=1)",)),
    (3, TRACER, "attention.py:penalty_value", None),
    (3, TRACER, "training.py:clip_grads", None),
    (3, PAD_RATIO, "data.py:_length_mask", None),
    (3, PAD_RATIO, "data.py:_length_mask.<listcomp>", None),
    (4, "tests/test_checks.py::test_nan_gradient_is_never_a_pass", "checks.py:_max_rel_err", ("return err",)),
    (4, "tests/test_config.py::test_bool_parsing", "config.py:_read_bool", None),
    (4, "tests/test_data.py::test_every_single_edit_of_a_dataset_line_is_records_or_a_data_error",
     "data.py:read_dataset", ("continue",)),
    (4, EMPTY_LINES, "data.py:read_sentences",
     ('print(f"warning: {path}:{lineno}: empty sentence line skipped", file=sys.stderr)', "continue")),
    (4, "tests/test_data.py::test_every_single_edit_of_a_vectors_line_is_vectors_or_a_data_error",
     "data.py:read_pretrained", ("continue",)),
    (4, "tests/test_tensor.py::TestProductGrad::test_two_linear_reads_add_in_graph_order",
     "tensor.py:Tensor._dense_grad", ("self.grad = np.asarray(self.grad)",)),
    (4, UNIFORM, "tensor.py:uniform", ("ahead = np.random.PCG64()", "ahead.state = state",
                                       "helpers.append(np.random.Generator(ahead.advance(start)))",
                                       "future.result()")),
    (4, "tests/test_tensor.py::TestSumSquares::test_frozen_weight_gets_no_gradient",
     "tensor.py:sum_squares.bk", ("continue",)),
    (4, "tests/test_training.py::test_clipped_sgd_step_gives_the_bits_of_the_whole_array_formula",
     "training.py:_spend", ("blocks[-2:] = [slice(blocks[-2].start, None)]",)),
    (4, "tests/test_training.py::test_clipped_adagrad_steps_give_the_bits_of_the_whole_array_formula",
     "training.py:adagrad_step", ("continue",)),
    (4, "tests/test_training.py::TestTrainLoop::test_early_stopping_respects_patience",
     "training.py:train", ("break",)),
    (4, "tests/test_viz.py::test_rows_come_in_chunks_of_whole_rows",
     "viz.py:embedding_csv_rows", ("yield _format_rows(pieces)", "pieces, size = [], 0")),
]


def executable_lines(path):
    """{line number: qualified name of the innermost function} of a module;
    module-level lines have the name ""."""
    lines = {}
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        name = "" if code.co_name == "<module>" else code.co_qualname.replace(".<locals>", "")
        for _, _, line in code.co_lines():
            if line is not None and (line not in lines or name.startswith(lines[line])):
                lines[line] = name
        stack += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def error_lines(path):
    """The line numbers of every ``raise`` statement and every ``except`` body."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Raise, ast.ExceptHandler)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def source_lines():
    """``((file path, line number), "file:function: source text", is an error
    line)`` for every executable line of ``src/structattn``, in file order."""
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        errors = error_lines(path)
        for line, function in sorted(executable_lines(path).items()):
            yield (str(path), line), f"{path.name}:{function}: {source[line - 1].strip()}", line in errors


def classify(entry, is_error):
    """The (kind, group) of an unreached line, or (None, None): the first rule
    that names the line, else kind 1 for an error line, else the first rule
    that names its function."""
    for kind, group, where, texts in RULES:
        if texts is not None and any(entry == f"{where}: {text}" for text in texts):
            return kind, group
    if is_error:
        return 1, ANY_TEST
    for kind, group, where, texts in RULES:
        if texts is None and entry.startswith(f"{where}: "):
            return kind, group
    return None, None


class Census:
    """Records the (file path, line number) pairs of ``src/structattn`` that run."""

    def __init__(self):
        self.files = {str(path) for path in SRC.glob("*.py")}
        self.reached = set()

    def _line(self, frame, event, arg):
        if event == "line":
            self.reached.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def _call(self, frame, event, arg):
        if frame.f_code.co_filename in self.files:
            self.reached.add((frame.f_code.co_filename, frame.f_lineno))
            return self._line
        return None

    def start(self):
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)

    @contextlib.contextmanager
    def tracing(self, reached):
        self.reached = reached
        self.start()
        try:
            yield
        finally:
            self.stop()


@contextlib.contextmanager
def quiet_in(directory):
    """Run inside ``directory`` with stdout and stderr discarded."""
    home = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            yield
    finally:
        os.chdir(home)


def pass_a():
    import output_digests
    from structattn import checks, cli

    with tempfile.TemporaryDirectory() as tmp, quiet_in(tmp):
        output_digests.session()
        for cfg in sorted((ROOT / "configs").glob("*.cfg")):
            cli.main(["params", "--config", str(cfg)])
        checks.run_op_checks(0)
        for head in GRADCHECK_HEADS:
            cli.main(["gradcheck", "--config", str(ROOT / "configs" / "gradcheck.cfg"), *head])


def pass_b():
    import gen
    from test_perfbench import smoke
    from workloads import WORKLOADS, run_cycle

    with tempfile.TemporaryDirectory() as tmp, quiet_in(tmp):
        for name in WORKLOADS:
            w = smoke(name)
            paths, _ = gen.write_inputs(w, BENCH_SEED, os.path.join(tmp, name))
            run_cycle(w, paths, BENCH_SEED)


def report(a, b):
    """The census's lines, and whether every unreached line has a kind."""
    parts = {PASS_B: {}, NOTHING: {}}
    counts = {"executable": 0, "pass A": 0, "pass B only": 0}
    for key, entry, is_error in source_lines():
        counts["executable"] += 1
        if key in a:
            counts["pass A"] += 1
            continue
        counts["pass B only"] += key in b
        kind, group = classify(entry, is_error)
        parts[PASS_B if key in b else NOTHING].setdefault(kind, {}).setdefault(group, []).append(entry)
    print(", ".join(f"{name}: {n}" for name, n in counts.items()), file=sys.stderr)
    out = ["# The lines of src/structattn that no command run reaches: python tools/reach.py > tools/reach.txt"]
    for title, kinds in parts.items():
        out.append(f"## {title}")
        for kind in sorted(kinds, key=lambda k: (k is None, k)):
            out.append(f"### {kind}. {KINDS[kind]}" if kind else "### unexplained")
            for group, entries in kinds[kind].items():
                out += ([f"#### {group}"] if group else []) + entries
    return out, None not in parts[PASS_B] and None not in parts[NOTHING]


def main():
    census = Census()
    a, b = set(), set()
    with census.tracing(a):
        pass_a()
    with census.tracing(b):
        pass_b()
    lines, explained = report(a, b)
    print("\n".join(lines))
    return 0 if explained else 1


def recorded():
    """``(group, "file:function: source text")`` for every entry of ``reach.txt``."""
    group, entries = None, []
    for line in RECORDED.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            group = line[5:] if line.startswith("#### ") else None
        elif line:
            entries.append((group, line))
    return entries


class NamedTests:
    """The pytest plugin: traces every test, then checks ``reach.txt``'s groups."""

    def __init__(self):
        keys = {}
        for key, entry, _ in source_lines():
            keys.setdefault(entry, set()).add(key)
        self.checks = [(group, entry, keys.get(entry, set())) for group, entry in recorded()
                       if group == ANY_TEST or group and group.startswith(("tests/", "perfbench/tests/"))]
        self.targets = set().union(*(lines for _, _, lines in self.checks))
        self.by_test = {}
        self.misses = []
        self.census = Census()
        self.census.start()

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item):
        self.census.reached = reached = set()
        yield
        self.by_test[item.nodeid] = reached & self.targets

    def pytest_sessionfinish(self, session):
        self.census.stop()
        for group, entry, lines in self.checks:
            tests = [hit for test, hit in self.by_test.items()
                     if group == ANY_TEST or test == group or test.startswith(group + "[")]
            if not any(lines & hit for hit in tests):
                self.misses.append(f"{group}: {entry}")
        if self.misses:
            session.exitstatus = 1

    def pytest_terminal_summary(self, terminalreporter):
        terminalreporter.section("tools/reach.txt")
        for miss in self.misses:
            terminalreporter.write_line(f"not reached: {miss}")
        terminalreporter.write_line(f"{len(self.checks) - len(self.misses)} of {len(self.checks)} "
                                    f"named lines reached by their tests")


def pytest_configure(config):
    config.pluginmanager.register(NamedTests(), "reach-named-tests")


if __name__ == "__main__":
    sys.exit(main())
