"""Fuzzing of the CLI's inputs (hypothesis, derandomized).

Random mutations of a valid device-config JSON, of a valid counts CSV and of
valid argument lists go through ``cli.main``.  Whatever the mutation, the CLI
must not raise, must exit 0 (the input still reads), 1 or 2, and must print
at most one ``error:`` line on stderr.  A mutated argument list must give the
same exit code, stdout and stderr through the parser that the examples before
it used as through a freshly built one.  A mutated config that loads must
keep every one of its values in ``DeviceConfig.to_json_dict``.  Mutated counts
CSVs also go through the columnar reader and grouping and through their
row-by-row references in ``conftest``: both must give the same records and
groups, or the same error.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from chipctx import cli
from chipctx.chips import load_device_config
from chipctx.sampling import CountRecord, write_counts_csv

from conftest import json_leaves, read_outcome

FUZZ = settings(deadline=None, derandomize=True, database=None, max_examples=150)

DEVICE_CONFIG = json.loads(
    (Path(__file__).resolve().parents[1] / "configs" / "device.sample.json").read_text("utf-8"))

COUNTS_ROWS = [
    (phi, CountRecord(ctx, counts, sum(counts), seed))
    for phi in (0.0, 1.5)
    for seed, (ctx, counts) in enumerate([("XX", (40, 10, 8, 42)), ("XZ", (41, 9, 10, 40)),
                                          ("ZX", (39, 11, 9, 41)), ("ZZ", (8, 42, 40, 10))])
]

json_scalars = (st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
                | st.text(max_size=8) | st.sampled_from([10**400, -10**400, -1, 0, 2, 0.5]))
json_values = json_scalars | st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)


def node_paths(node, prefix=()):
    """Key paths of every value under ``node``, containers and leaves."""
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from node_paths(child, prefix + (key,))


@st.composite
def mutated_documents(draw, document):
    """The JSON document with a few of its values replaced or deleted, or a value added."""
    doc = json.loads(json.dumps(document))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(node_paths(doc))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        parent = doc
        for step in parents:
            parent = parent[step]
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            parent[key] = draw(json_values)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, dict):
            parent[draw(st.text(max_size=8))] = draw(json_values)
        else:
            parent.append(draw(json_values))
    return doc


@st.composite
def mutated_text(draw, text):
    """The text with a few slices deleted, replaced, duplicated or quoted.

    A replacement may be repeated past the csv module's field limit.  A quoted
    slice has a newline inside, so that a quoted field can span lines.
    """
    pieces = st.text(alphabet=st.sampled_from(list('0123456789.,-+eE:"{}[] \nXZnaif\x00'))
                     | st.characters(), max_size=6)
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        stop = draw(st.integers(start, min(len(text), start + 12)))
        action = draw(st.sampled_from(["delete", "replace", "duplicate", "quote"]))
        if action == "delete":
            text = text[:start] + text[stop:]
        elif action == "replace":
            text = text[:start] + draw(pieces) * draw(st.sampled_from([1, 40_000])) + text[stop:]
        elif action == "duplicate":
            text = text[:stop] + text[start:stop] + text[stop:]
        else:
            middle = draw(st.integers(start, stop))
            text = f'{text[:start]}"{text[start:middle]}\n{text[middle:stop]}"{text[stop:]}'
    return text


def run_cli(argv):
    """Exit code and stderr of ``cli.main``; any exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 1, 2), err
    assert err.count("error:") <= 1, err
    if code != 0:
        assert err.count("error:") == 1, err


def run_sweep_on_config(text):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "device.json"
        config.write_text(text, encoding="utf-8", errors="surrogatepass")
        return run_cli(["sweep", "--device", "imperfect", "--config", config, "--steps", 3,
                        "--out", Path(tmp) / "sweep.csv"])


def run_analyze_on_counts(text, *extra):
    with tempfile.TemporaryDirectory() as tmp:
        counts = Path(tmp) / "counts.csv"
        counts.write_text(text, encoding="utf-8", errors="surrogatepass")
        return run_cli(["analyze", counts, *extra])


def valid_counts_text():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.csv"
        write_counts_csv(path, COUNTS_ROWS)
        return path.read_text(encoding="utf-8")


COUNTS_TEXT = valid_counts_text()


def test_unmutated_inputs_are_accepted():
    assert run_sweep_on_config(json.dumps(DEVICE_CONFIG)) == (0, "")
    assert run_analyze_on_counts(COUNTS_TEXT) == (0, "")


@FUZZ
@given(mutated_documents(DEVICE_CONFIG))
def test_mutated_device_config_exits_cleanly(doc):
    assert_clean_exit(*run_sweep_on_config(json.dumps(doc)))


@settings(FUZZ, max_examples=600)  # most mutated documents do not load
@given(mutated_documents(DEVICE_CONFIG))
def test_a_loaded_config_keeps_every_value(doc):
    # an empty object or array holds no value, so to_json_dict may leave it out
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "device.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            device = load_device_config(path)
        except ValueError:
            return
    assert json_leaves(doc).items() <= json_leaves(device.to_json_dict()).items()


@FUZZ
@given(mutated_text(json.dumps(DEVICE_CONFIG, indent=2)))
def test_mutated_device_config_text_exits_cleanly(text):
    assert_clean_exit(*run_sweep_on_config(text))


@FUZZ
@given(mutated_text(COUNTS_TEXT), st.sampled_from([(), ("--bootstrap", "2")]))
def test_mutated_counts_csv_exits_cleanly(text, extra):
    assert_clean_exit(*run_analyze_on_counts(text, *extra))


@st.composite
def restructured_counts(draw):
    """COUNTS_TEXT with its records reordered, some duplicated or dropped, and blank lines added."""
    header, *lines = COUNTS_TEXT.splitlines()
    lines = list(draw(st.permutations(lines)))
    for _ in range(draw(st.integers(0, 4))):
        action = draw(st.sampled_from(["duplicate", "drop", "blank"]))
        i = draw(st.integers(0, len(lines)))
        if action == "duplicate" and i < len(lines):
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif action == "drop" and i < len(lines):
            del lines[i]
        else:
            lines.insert(i, "")
    return "\n".join([header, *lines]) + "\n"


@settings(FUZZ, max_examples=400)
@given(restructured_counts().flatmap(lambda text: st.just(text) | mutated_text(text)))
def test_columnar_reader_matches_the_row_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.csv"
        path.write_text(text, encoding="utf-8", errors="surrogatepass")
        assert read_outcome(path) == read_outcome(path, reference=True)


# Valid argument lists, each with the flags that take one value.  analyze
# reads counts.csv, a copy of COUNTS_TEXT in the working directory.
ARGVS = [
    (["sweep", "--steps", "3", "--out", "s.csv"], ["--steps", "--phi-start", "--phi-end"]),
    (["sweep", "--mode", "sampled", "--steps", "3", "--shots", "50", "--seed", "1",
      "--out", "s.csv"], ["--steps", "--shots", "--seed", "--bootstrap"]),
    (["hv", "--prep", "0.1", "0.2", "0.3", "0.4", "--shots", "50", "--seed", "3"],
     ["--shots", "--seed", "--flip-prob"]),
    (["hv", "--prep", "0", "1", "0", "0", "--exact"], ["--flip-prob"]),
    (["analyze", "counts.csv", "--summary", "2.69", "2.53", "0.012"], ["--bootstrap"]),
    (["analyze", "counts.csv"], ["--bootstrap"]),
]

# Integer sizes are either tiny or so large (10**15 and up) that no allocation
# of that many elements can succeed; anything in between could really be
# allocated and exhaust the machine's memory.
ARG_VALUES = ["nan", "inf", "-0", "1e400", "", "-1", "2", "0.5", str(2**63), str(10**15),
              str(10**400)]


@st.composite
def mutated_argvs(draw):
    """A valid argv with a few flags set again (the last one counts) or tokens changed."""
    argv, flags = draw(st.sampled_from(ARGVS))
    argv = list(argv)
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["set", "set", "replace", "delete", "insert"]))
        i = draw(st.integers(1, len(argv) - 1))
        if action == "set":
            argv += [draw(st.sampled_from(flags)), draw(st.sampled_from(ARG_VALUES))]
        elif action == "replace":
            argv[i] = draw(st.sampled_from(ARG_VALUES))
        elif action == "delete" and len(argv) > 2:
            del argv[i]
        else:
            argv.insert(i, draw(st.sampled_from(ARG_VALUES)))
    return argv


def run_cli_in_new_directory(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` in a new directory holding counts.csv."""
    cwd = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # a mutated --out may name any relative path
        try:
            Path("counts.csv").write_text(COUNTS_TEXT, encoding="utf-8")
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main([str(a) for a in argv])
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


# Sent through the shared parser before each example, so that state an action
# leaves on the parser (a stored --summary, say) shows in the example's run.
PRIMING_ARGV = ["analyze", "counts.csv", "--summary", "2.69", "2.53", "0.012"]


@settings(FUZZ, max_examples=1000)
@given(mutated_argvs())
def test_mutated_argv_exits_cleanly(argv):
    assert run_cli_in_new_directory(PRIMING_ARGV)[0] == 0
    shared = run_cli_in_new_directory(argv)  # through the parser the examples before it used
    code, _, err = shared
    assert "Traceback" not in err, err
    assert_clean_exit(code, err)
    cli._parser.cache_clear()
    assert run_cli_in_new_directory(argv) == shared  # through a freshly built parser
