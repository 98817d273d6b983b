"""Plain-text persistence: datasets, fitted models, grids, and reports.

All floats are written with 17 significant digits so that reading them
back reproduces the original doubles bit for bit, which is what makes the
pipeline byte-reproducible and lets a reloaded model reproduce its stored
diagnostics exactly.
"""

from __future__ import annotations

import dataclasses
import io as _io
import math
from pathlib import Path

import numpy as np

from .certificates import RUN_INPUT, BoundReport, DoaEstimate, LyapunovEstimate
from .dynsys import SnapshotDataset
from .errors import InvalidInputError
from .estimator import EtaSpec, FitDiagnostics, KoopmanModel, factor_model
from .kernels import KernelSpec, WeightedKernelSpec, WeightSpec, weight_values

CHECKED_DIAGNOSTICS = ("risk", "hs_norm", "op_norm")
# Stored and recomputed diagnostics must agree to this relative error. The
# risk is a difference of nearly equal terms, so its last digits move with
# the BLAS build and summation order.
DIAGNOSTICS_RTOL = 1e-10


def fmt(x: float) -> str:
    """17-significant-digit decimal rendering; round-trips float64 exactly."""
    return format(float(x), ".17g")


def _text(value) -> str:
    """A value as written: strings and ints as they are, floats by fmt, arrays as comma-joined fmt."""
    if isinstance(value, np.ndarray):
        return ",".join(fmt(v) for v in value)
    return str(value) if isinstance(value, (str, int, np.integer)) else fmt(value)


def ini_text(sections: dict, head: str | None = None) -> str:
    """The text of {section: {key: value}} as [section] and key=value lines
    (values by _text), after the comment line head if given. A None section
    or value is left out."""
    lines = [] if head is None else [head]
    for name, items in sections.items():
        if items is not None:
            lines.append(f"[{name}]")
            lines.extend(f"{key}={_text(value)}" for key, value in items.items() if value is not None)
    return "\n".join(lines) + "\n"


def _reported(record) -> dict[str, tuple]:
    """name -> (value, source) of each reported field of a certificate record
    (certificates.reported), the source as 'source' or 'source; uses a, b'."""
    out = {}
    for f in dataclasses.fields(record):
        if f.metadata:
            source, uses = f.metadata["source"], ", ".join(f.metadata["uses"])
            source = source(record) if callable(source) else source
            out[f.name] = (getattr(record, f.name), source + (uses and f"; uses {uses}"))
    return out


def _write_rows(target, header: str, rows: np.ndarray) -> None:
    """Header line, then one comma-separated 17-digit line per row (np.savetxt's
    text for fmt="%.17g"); target is a path or an open text stream."""
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    text = header + "\n" + (line * len(rows)) % tuple(rows.ravel().tolist())
    if isinstance(target, (str, Path)):
        Path(target).write_text(text)
    else:
        target.write(text)


def _dataset_header(n: int) -> str:
    return ",".join([f"x{i+1}" for i in range(n)] + [f"y{i+1}" for i in range(n)])


@dataclasses.dataclass(frozen=True)
class DatasetMeta:
    """The [dataset] section of a dataset's .meta sidecar."""

    m: int
    dim: int
    seed: int
    dt: float
    rejected_count: int


def write_dataset(ds: SnapshotDataset, path: str | Path) -> None:
    """CSV of snapshot pairs, header x1..xn,y1..yn, plus a .meta sidecar with
    the draw settings."""
    path = Path(path)
    n = ds.X.shape[1]
    _write_rows(path, _dataset_header(n), np.hstack([ds.X, ds.Y]))
    meta = DatasetMeta(len(ds), n, ds.seed, ds.dt, ds.rejected_count)
    path.with_suffix(path.suffix + ".meta").write_text(ini_text({"dataset": dataclasses.asdict(meta)}))


def _read_text(path: Path, what: str) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read {what} {path}: {exc}") from exc


def read_ini(path: Path, what: str, table: dict) -> dict:
    """The records of a key=value file by build_sections; a section outside
    table is refused, and what (say "config") names the file."""
    where = f"{what} {path}"
    sections = _parse_sections(_read_text(path, what), where)
    _known_sections(sections, table, where)
    return build_sections(sections, table, where)


def _known_sections(sections: dict, names, where: str) -> None:
    """Refuse a section that is not among names."""
    for name in sections:
        if name not in names:
            raise InvalidInputError(
                f"{where} has an unknown section [{name}]; expected one of {', '.join(names)}"
            )


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not a finite number")
    return value


# Parser of a raw section value, by the annotation of the field it fills.
CONVERTERS = {
    "str": str,
    "int": int,
    "float": _finite,
    "tuple": lambda raw: tuple(_finite(v) for v in raw.split(",")),
    "int | None": lambda raw: int(raw) if raw else None,
    "float | None": lambda raw: _finite(raw) if raw else None,
    "np.ndarray": lambda raw: np.array([_finite(v) for v in raw.split(",")]),
}


def build_section(cls, section: str, items: dict[str, str], where: str):
    """The dataclass cls built from the raw key=value items of one section.

    The accepted keys are the names of cls's fields, and each value is
    parsed by its field's annotation. An absent key keeps the field's
    default; a field without one is required. where (say "config run.ini")
    opens every error message.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    values = {}
    for key, raw in items.items():
        if key not in fields:
            raise InvalidInputError(
                f"{where} has an unknown key {key!r} in [{section}]; "
                f"expected one of {', '.join(fields)}"
            )
        try:
            values[key] = CONVERTERS[fields[key].type](raw)
        except ValueError as exc:
            raise InvalidInputError(f"{where} has a bad {key!r} in [{section}]: {exc}") from exc
    for name, f in fields.items():
        if name not in values and f.default is dataclasses.MISSING:
            raise InvalidInputError(f"{where} lacks the required key {name!r} in [{section}]")
    return cls(**values)


def build_sections(sections: dict[str, list[str]], table: dict, where: str) -> dict:
    """The record of each section of table, built by build_section from its
    key=value lines. An absent [eta] is left out, as a run or fit without a
    state cost; any other absent section is built from no keys."""
    return {
        name: build_section(cls, name, _kv(sections.get(name, []), where), where)
        for name, cls in table.items()
        if name in sections or name != "eta"
    }


def read_dataset(path: str | Path) -> SnapshotDataset:
    """The pairs of a dataset CSV and the draw settings of its .meta sidecar, whose
    m and dim must match the CSV; without a sidecar, dt is None and seed 0."""
    path = Path(path)
    text = _read_text(path, "dataset file").strip().split("\n")
    header = text[0].strip()
    n = max(1, (header.count(",") + 1) // 2)
    if header != _dataset_header(n):
        raise InvalidInputError(
            f"dataset file {path} has the header {header[:80]!r}; expected {_dataset_header(n)!r}"
        )
    rows = _matrix(text[1:], f"dataset file {path}")
    if rows.ndim != 2 or rows.shape[1] != 2 * n:
        raise InvalidInputError(f"malformed dataset file {path}")
    X, Y = rows[:, :n], rows[:, n:]
    meta_path = path.with_suffix(path.suffix + ".meta")
    if not meta_path.exists():
        return SnapshotDataset(X=X, Y=Y, dt=None, seed=0)
    meta = read_ini(meta_path, "dataset metadata", {"dataset": DatasetMeta})["dataset"]
    if (meta.m, meta.dim) != (len(rows), n):
        raise InvalidInputError(
            f"dataset metadata {meta_path} says m={meta.m}, dim={meta.dim}, "
            f"but {path} holds {len(rows)} pairs of dimension {n}"
        )
    return SnapshotDataset(X=X, Y=Y, dt=meta.dt, seed=meta.seed, rejected_count=meta.rejected_count)


@dataclasses.dataclass(frozen=True)
class ModelMeta:
    """The [meta] section of a model file."""

    mode: str
    m: int
    dim: int
    rank: int
    beta: float


# The key=value sections of a model file and the records they hold.
MODEL_HEAD = {
    "meta": ModelMeta,
    "kernel": KernelSpec,
    "weight": WeightSpec,
    "eta": EtaSpec,
    "diagnostics": FitDiagnostics,
}
# The sections of a model file after its head, one row of numbers per line.
MODEL_ARRAYS = ("anchors_x", "anchors_y", "U")


def write_model(model: KoopmanModel, path: str | Path) -> None:
    """Sectioned text format: the MODEL_HEAD records, the anchors and the factor U.

    The Grams, W, H and Q are not stored; read_model rebuilds them from the
    anchors and U.
    """
    meta = ModelMeta(model.mode, len(model), model.anchors_x.shape[1], model.rank, model.beta)
    records = (meta, model.kw.kernel, model.kw.weight, model.eta, model.diagnostics)
    head = {name: None if r is None else dataclasses.asdict(r) for name, r in zip(MODEL_HEAD, records)}
    buf = _io.StringIO()
    buf.write(ini_text(head, "# koopcert model v2"))
    for name in MODEL_ARRAYS:
        _write_rows(buf, f"[{name}]", getattr(model, name))
    Path(path).write_text(buf.getvalue())


def _parse_sections(text: str, where: str) -> dict[str, list[str]]:
    """The lines of each [section], stripped, with blank lines and # or ;
    comment lines dropped. A line before the first section and a repeated
    section are refused."""
    sections: dict[str, list[str]] = {}
    current = None
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            if current in sections:
                raise InvalidInputError(f"malformed {where}: repeated section [{current}]")
            sections[current] = []
        elif current is None:
            raise InvalidInputError(f"malformed {where}: {line[:80]!r} comes before the first section")
        else:
            sections[current].append(line)
    return sections


def _kv(lines: list[str], where: str) -> dict[str, str]:
    """The key=value lines of a section; a repeated key is refused."""
    out = {}
    for line in lines:
        if "=" not in line:
            raise InvalidInputError(f"malformed {where}: expected key=value, got {line!r}")
        k, v = (part.strip() for part in line.split("=", 1))
        if k in out:
            raise InvalidInputError(f"malformed {where}: repeated key {k!r}")
        out[k] = v
    return out


def _matrix(lines: list[str], where: str) -> np.ndarray:
    """The rows of comma-separated numbers, one per line, filled in row by
    row, so no Python float of the whole is held; a row whose count of
    values differs from the first row's is refused."""
    width = lines[0].count(",") + 1 if lines else 0
    out = np.empty((len(lines), width))
    for i, line in enumerate(lines):
        cells = line.split(",")
        if len(cells) != width:
            raise InvalidInputError(f"malformed {where}: a row holds {len(cells)} values, not {width}")
        try:
            out[i] = [float(v) for v in cells]
        except ValueError as exc:
            raise InvalidInputError(f"malformed {where}: {exc}") from exc
    return out


def read_model(path: str | Path) -> KoopmanModel:
    """Rebuild a fitted model from its file.

    The factors and diagnostics are recomputed from the anchors, U and the
    stored sigma^2 and norm bound by the call the fit ends in, factor_model,
    with the same arguments, so the model is bit-identical to the fitted
    one. The parsed text is dropped first, no m x m array is held, and the
    target Gram is not read. A file whose stored CHECKED_DIAGNOSTICS differ
    from the recomputed ones by more than DIAGNOSTICS_RTOL is rejected, and
    so is a norm bound, which is not recomputed, below the operator norm or
    below max_i (w(y_i) d_i)^2 / (beta m), L's largest diagonal entry over
    beta m, which no bound on lam_max(L) / (beta m) can be. A stored bound
    above both floors is not verified: a looser one, and a tighter one that
    is not a bound, load as stored. Also refused are non-finite numbers, a
    line outside every section, a repeated section or key, a section outside
    MODEL_HEAD and MODEL_ARRAYS, an array row of the wrong length, and a v1
    file, which held the dense theta instead of U. The head is built by
    build_section.
    """
    path = Path(path)
    where = f"model file {path}"
    sections = _parse_sections(_read_text(path, "model file"), where)
    if "theta" in sections and "U" not in sections:
        raise InvalidInputError(
            f"{path} is a v1 model file (dense theta); refit it with this version"
        )
    _known_sections(sections, (*MODEL_HEAD, *MODEL_ARRAYS), where)
    for needed in ("meta", "kernel", "weight", "diagnostics", *MODEL_ARRAYS):
        if needed not in sections:
            raise InvalidInputError(f"{where} is missing the [{needed}] section")
    head = build_sections(sections, MODEL_HEAD, where)
    X, Y, U = (_matrix(sections[name], where) for name in MODEL_ARRAYS)
    del sections
    meta, diag, eta = head["meta"], head["diagnostics"], head.get("eta")
    kw = WeightedKernelSpec(head["kernel"], head["weight"])
    shapes = (X.shape, Y.shape, U.shape, diag.sigma_sq.shape)
    if shapes != ((meta.m, meta.dim), (meta.m, meta.dim), (meta.m, meta.rank), (meta.rank,)):
        raise InvalidInputError(f"{where} arrays disagree with the declared sizes")
    for name, A in (("anchors_x", X), ("anchors_y", Y), ("U", U)):
        if not np.all(np.isfinite(A)):
            raise InvalidInputError(f"{where} has non-finite {name} entries")
    if meta.mode != ("koopman" if eta is None else "zubov"):
        raise InvalidInputError(
            f"{where} has mode {meta.mode!r}, which does not match its [eta] section"
        )
    if not meta.beta > 0:
        raise InvalidInputError(f"{where} has beta={fmt(meta.beta)}; beta must be positive")
    # A genuine fit rebuilds without overflow; one that overflows cannot
    # reproduce its stored diagnostics, so refuse it here without the warnings.
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            model = factor_model(kw, X, Y, eta, meta.beta, U, diag.sigma_sq, diag.norm_bound)
            # the targets' norms again, one O(m) pass beside factor_model's
            target = weight_values(kw.weight, Y, model.damping)
            top_diagonal = float(np.max(target * target)) / (meta.beta * meta.m)
    except FloatingPointError as exc:
        raise InvalidInputError(f"{where} does not rebuild: {exc}") from exc
    for name in CHECKED_DIAGNOSTICS:
        value, recomputed = getattr(diag, name), getattr(model.diagnostics, name)
        if not abs(recomputed - value) <= DIAGNOSTICS_RTOL * abs(recomputed):
            raise InvalidInputError(
                f"{where} stores {name}={fmt(value)} "
                f"but its factors give {fmt(recomputed)}"
            )
    floors = {"its operator norm": model.diagnostics.op_norm, "max_i L_ii / (beta m)": top_diagonal}
    for name, floor in floors.items():
        if not diag.norm_bound >= floor:
            raise InvalidInputError(
                f"{where} stores norm_bound={fmt(diag.norm_bound)}, below {name} = {fmt(floor)}"
            )
    return model


def grid_text(axes) -> str:
    """The text of a grid CSV with a %.17g slot for each value: the header
    x1, ..., xn, value, then one line per point of the tensor grid of axes,
    in row-major order, its coordinates then the slot.

    Each axis value is formatted once, and a grid's text is built once
    however many value grids are written on it.
    """
    lines = [""]
    for t in axes:
        cells = ["%.17g," % v for v in t.tolist()]
        lines = [line + cell for line in lines for cell in cells]
    header = ",".join([f"x{i+1}" for i in range(len(axes))] + ["value"])
    return header + "\n" + "%.17g\n".join(lines) + "%.17g\n"


def write_grid(text: str, values: np.ndarray, path: str | Path) -> None:
    """A grid CSV: grid_text's text with its slots filled by the values,
    in the text of _write_rows."""
    Path(path).write_text(text % tuple(values.tolist()))


def write_report(report: BoundReport, path: str | Path, series: LyapunovEstimate | None = None) -> None:
    """The bound report: [inputs] holds the run's inputs, [bounds] its other numbers, [series]
    those of the Lyapunov series if given, and [certified_by] the source of each."""
    numbers = {name: vs for name, vs in _reported(report).items() if vs[0] is not None}
    summed = {} if series is None else _reported(series)
    sections = {
        "inputs": {name: v for name, (v, src) in numbers.items() if src == RUN_INPUT},
        "bounds": {name: v for name, (v, src) in numbers.items() if src != RUN_INPUT},
        "series": {name: v for name, (v, _) in summed.items()} or None,
        "certified_by": {name: src for name, (_, src) in {**numbers, **summed}.items()},
    }
    Path(path).write_text(ini_text(sections, "# koopcert report v1"))


def write_doa(doa: DoaEstimate, path: str | Path) -> None:
    """The attraction-level certificate: the floors and a* (none if no level is certified)
    in [doa], the cost table level=mu in [mu_table], and the source of each in [certified_by]."""
    numbers = _reported(doa)
    sections = {
        "doa": {name: "none" if v is None else v for name, (v, _) in numbers.items() if name != "mu_table"},
        "mu_table": {fmt(a): mu for a, mu in doa.mu_table.items()},
        "certified_by": {name: src for name, (_, src) in numbers.items()},
    }
    Path(path).write_text(ini_text(sections, "# koopcert doa v1"))
