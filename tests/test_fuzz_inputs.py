"""Property tests: damaged input files fail only through the error contract.

Config, dataset and model files cut at any byte, or with one token swapped
for a hostile value, must either load or raise a KoopcertError, and must
not leak a RuntimeWarning on the way. The command line, run on such files,
must return one of its documented exit codes 0 to 3 and write at most one
error: line, every stderr line opening with error:, warning: or hint:.
"""

import contextlib
import io
import re
import warnings

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from koopcert import (
    DomainSpec,
    EtaSpec,
    KoopcertError,
    RRRConfig,
    SystemSpec,
    fit_koopman,
    load_config,
    make_dataset,
    read_dataset,
    read_model,
    write_dataset,
    write_model,
)
from koopcert.cli import main

from helpers import kw_gaussian, linear_model
from test_io_cli import LINEAR_CONFIG, ZUBOV_CONFIG

# Separators of every format read here: CSV commas, key=value lines, INI
# and model section headers, and whitespace.
SEPARATORS = re.compile(r"([,=\n\[\]: ]+)")
HOSTILE = [
    "", "nan", "-nan", "inf", "-inf", "1e999", "-1e999", "1e-320", "0", "-0", "-1",
    "1e308", "99999999999", "abc", "[U]", "[meta]", "=", ",", "0x10", "1_0", "é",
]


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """Pristine file texts, keyed by what reads them, and a scratch dir."""
    scratch = tmp_path_factory.mktemp("fuzz")
    ds, _, model = linear_model(a=0.5, m=10, rank=3, seed=4)
    write_dataset(ds, scratch / "dataset.csv")
    write_model(model, scratch / "model.txt")
    kw, eta = kw_gaussian(power=0.5), EtaSpec(kind="quadratic-norm", scale=0.5)
    box = DomainSpec(kind="box", lo=(-1, -1), hi=(1, 1))
    zds = make_dataset(SystemSpec(kind="example2"), box, 10, 0.025, 5, kw.weight)
    write_model(fit_koopman(zds, kw, RRRConfig(rank=3), eta=eta), scratch / "zubov-model.txt")
    texts = {
        "config": LINEAR_CONFIG,
        "zubov-config": ZUBOV_CONFIG,
        "dataset": (scratch / "dataset.csv").read_text(),
        "dataset-meta": (scratch / "dataset.csv.meta").read_text(),
        "model": (scratch / "model.txt").read_text(),
        "zubov-model": (scratch / "zubov-model.txt").read_text(),
    }
    return texts, scratch


def _truncated(text: str, cut: int) -> str:
    return text[: cut % (len(text) + 1)]


def _garbled(text: str, pick: int, token: str) -> str:
    parts = SEPARATORS.split(text)
    slots = [i for i, part in enumerate(parts) if part and not SEPARATORS.fullmatch(part)]
    parts[slots[pick % len(slots)]] = token
    return "".join(parts)


def _load(kind: str, text: str, originals) -> None:
    texts, scratch = originals
    if kind in ("config", "zubov-config"):
        path = scratch / "config.ini"
        path.write_text(text)
        load_config(path)
    elif kind.startswith("dataset"):
        path = scratch / "dataset.csv"
        path.write_text(text if kind == "dataset" else texts["dataset"])
        (scratch / "dataset.csv.meta").write_text(text if kind == "dataset-meta" else texts["dataset-meta"])
        read_dataset(path)
    else:
        path = scratch / "model.txt"
        path.write_text(text)
        read_model(path)


def _assert_contract(kind: str, text: str, originals) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            _load(kind, text, originals)
        except KoopcertError:
            pass


KINDS = st.sampled_from(["config", "zubov-config", "dataset", "dataset-meta", "model"])
FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None)
CUTS = st.integers(min_value=0)
PICKS = st.integers(min_value=0)
TOKENS = st.sampled_from(HOSTILE) | st.text(max_size=6)


@FUZZ
@given(kind=KINDS, cut=CUTS)
def test_truncated_input_files_raise_only_koopcert_errors(originals, kind, cut):
    _assert_contract(kind, _truncated(originals[0][kind], cut), originals)


@FUZZ
@given(kind=KINDS, pick=PICKS, token=TOKENS)
def test_garbled_input_files_raise_only_koopcert_errors(originals, kind, pick, token):
    _assert_contract(kind, _garbled(originals[0][kind], pick, token), originals)


# Each command with the files it reads: its config, then its input file.
COMMANDS = {
    "fit": ("config", "dataset", "dataset-meta"),
    "lyapunov": ("config", "model"),
    "report": ("config", "model"),
    "zubov": ("zubov-config", "zubov-model"),
}
FILE_NAMES = {
    "config": "config.ini",
    "zubov-config": "config.ini",
    "dataset": "dataset.csv",
    "dataset-meta": "dataset.csv.meta",
    "model": "model.txt",
    "zubov-model": "model.txt",
}


def _assert_cli_contract(originals, command: str, target: int, damage) -> None:
    """Run command on its files with one of them damaged; expect a documented
    exit code and stderr lines that each open with error:, warning: or hint:,
    at most one of them an error."""
    texts, scratch = originals
    kinds = COMMANDS[command]
    damaged = kinds[target % len(kinds)]
    run = scratch / "cli"
    run.mkdir(exist_ok=True)
    for kind in kinds:
        (run / FILE_NAMES[kind]).write_text(damage(texts[kind]) if kind == damaged else texts[kind])
    config = run / "config.ini"
    if damaged == kinds[0]:
        # A config that still loads but asks for a larger sample, grid or
        # horizon is a valid request for more work, not a damaged file.
        with contextlib.suppress(KoopcertError):
            cfg = load_config(config)
            assume(cfg.sampling.m <= 60 and cfg.output.grid_resolution <= 101)
            assume((cfg.certificate.horizon or 0) <= 3)
    inputs = str(run / FILE_NAMES[kinds[1]])
    argv = [command, "--config", str(config), "--out", str(run / "out"), "--quiet", inputs]
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) in (0, 1, 2, 3)
    lines = stderr.getvalue().splitlines()
    assert all(line.startswith(("error:", "warning:", "hint:")) for line in lines), lines
    assert sum(line.startswith("error:") for line in lines) <= 1, lines


@FUZZ
@given(command=st.sampled_from(sorted(COMMANDS)), target=PICKS, cut=CUTS)
def test_cli_on_truncated_files_returns_documented_exit_code(originals, command, target, cut):
    _assert_cli_contract(originals, command, target, lambda text: _truncated(text, cut))


@FUZZ
@given(command=st.sampled_from(sorted(COMMANDS)), target=PICKS, pick=PICKS, token=TOKENS)
# Finite values whose squares or powers overflow: a dataset coordinate, the
# weight exponent, and a ball radius whose sampling range overflows.
@example(command="fit", target=1, pick=4, token="1e308")
@example(command="fit", target=0, pick=26, token="99999999999")
@example(command="report", target=0, pick=9, token="1e308")
def test_cli_on_garbled_files_returns_documented_exit_code(originals, command, target, pick, token):
    _assert_cli_contract(originals, command, target, lambda text: _garbled(text, pick, token))
