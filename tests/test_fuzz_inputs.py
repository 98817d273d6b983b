"""Property tests: damaged input files fail only through the error contract.

Config, dataset and model files cut at any byte, or with one token swapped
for a hostile value, must either load or raise a KoopcertError, and must
not leak a RuntimeWarning on the way.
"""

import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopcert import (
    KoopcertError,
    load_config,
    read_dataset,
    read_model,
    write_dataset,
    write_model,
)

from helpers import linear_model
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
    texts = {
        "config": LINEAR_CONFIG,
        "zubov-config": ZUBOV_CONFIG,
        "dataset": (scratch / "dataset.csv").read_text(),
        "dataset-meta": (scratch / "dataset.csv.meta").read_text(),
        "model": (scratch / "model.txt").read_text(),
    }
    return texts, scratch


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


@FUZZ
@given(kind=KINDS, cut=st.integers(min_value=0))
def test_truncated_input_files_raise_only_koopcert_errors(originals, kind, cut):
    text = originals[0][kind]
    _assert_contract(kind, text[: cut % (len(text) + 1)], originals)


@FUZZ
@given(
    kind=KINDS,
    pick=st.integers(min_value=0),
    token=st.sampled_from(HOSTILE) | st.text(max_size=6),
)
def test_garbled_input_files_raise_only_koopcert_errors(originals, kind, pick, token):
    parts = SEPARATORS.split(originals[0][kind])
    slots = [i for i, part in enumerate(parts) if part and not SEPARATORS.fullmatch(part)]
    parts[slots[pick % len(slots)]] = token
    _assert_contract(kind, "".join(parts), originals)
