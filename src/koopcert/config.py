"""Run configuration: one sectioned key=value file determines a pipeline run."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .certificates import HORIZON_CAP, grid_slab_rows
from .dynsys import DomainSpec, SystemSpec
from .errors import InvalidInputError
from .estimator import EtaSpec, RRRConfig
from .io import read_ini
from .kernels import KernelSpec, WeightedKernelSpec, WeightSpec

CERTIFICATE_MODES = ("lyapunov", "zubov")
# Largest dense float64 array a run may ask for: the m x m target Gram that a
# fit and a reload hold, a kernel factor of a grid axis, a grid slab's lead
# factor or product, or the grid's coordinates and values (see README,
# "Work-size cap"). Every other Gram product is streamed in blocks of
# kernels.PRODUCT_BLOCK_ENTRIES entries, whatever the run's size.
WORK_BYTES_CAP = 512 * 2**20


@dataclass(frozen=True)
class SamplingConfig:
    m: int
    dt: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.m <= 0:
            raise InvalidInputError(f"sample count must be positive, got {self.m}")
        if self.dt <= 0:
            raise InvalidInputError(f"dt must be positive, got {self.dt}")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class CertificateConfig:
    mode: str = "lyapunov"
    horizon: int | None = None
    time: float | None = None
    nu: float = 1.0
    varsigma: float = 0.1
    delta: float = 0.05

    def __post_init__(self) -> None:
        if self.mode not in CERTIFICATE_MODES:
            raise InvalidInputError(f"certificate mode must be one of {CERTIFICATE_MODES}")
        if self.delta <= 0 or self.delta >= 1:
            raise InvalidInputError("delta must lie in (0, 1)")
        if self.nu < 1 or self.varsigma <= 0:
            raise InvalidInputError("nu must be >= 1 and varsigma > 0")
        if self.mode == "lyapunov" and self.time is not None:
            raise InvalidInputError(
                "[certificate] time is a zubov horizon; a Lyapunov run takes horizon (in steps)"
            )
        if self.horizon is not None and self.time is not None:
            raise InvalidInputError("[certificate] sets both horizon and time; give one of them")

    def zubov_steps(self, dt: float) -> int:
        """Horizon in steps; a physical time is rounded via the sampling dt."""
        if self.horizon is not None:
            return int(self.horizon)
        if self.time is None:
            raise InvalidInputError("zubov certificate needs either horizon or time")
        return int(round(self.time / dt))


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "out"
    grid_resolution: int = 101

    def __post_init__(self) -> None:
        if self.grid_resolution < 2:
            raise InvalidInputError("grid resolution must be at least 2")


@dataclass(frozen=True)
class RunConfig:
    system: SystemSpec
    domain: DomainSpec
    sampling: SamplingConfig
    kw: WeightedKernelSpec
    rrr: RRRConfig
    certificate: CertificateConfig
    output: OutputConfig
    eta: EtaSpec | None = None

    def __post_init__(self) -> None:
        if self.domain.dim != self.system.dim:
            raise InvalidInputError("domain and system dimensions disagree")
        if (self.certificate.mode == "zubov") != (self.eta is not None):
            raise InvalidInputError("a zubov run needs an [eta] section and a Lyapunov run takes none")

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, sampling=replace(self.sampling, seed=seed))


# Each INI section and the dataclass it fills: the section's keys are the
# class's fields, parsed by their annotations (io.build_section).
SECTIONS = {
    "system": SystemSpec,
    "domain": DomainSpec,
    "sampling": SamplingConfig,
    "kernel": KernelSpec,
    "weight": WeightSpec,
    "eta": EtaSpec,
    "rrr": RRRConfig,
    "certificate": CertificateConfig,
    "output": OutputConfig,
}


def _check_work_size(
    dim: int, sampling: SamplingConfig, rank: int, cert: CertificateConfig, res: int
) -> None:
    """Refuse an array above WORK_BYTES_CAP bytes, a horizon outside [0, HORIZON_CAP] steps,
    or a zubov horizon that rounds to no step."""
    m, points = sampling.m, res ** min(dim, 32)  # 2^32 grid points already pass the cap
    # the certificate's coefficients: U (m x rank) for the series, one column for zubov
    width = rank if cert.mode == "lyapunov" else 1
    slab = min(points // res, grid_slab_rows(m, width)) * width
    arrays = {
        f"the {m} x {m} target Gram of the fit and reload": 8 * m * m,
        f"the {m} x {res} kernel factor of a grid axis": 8 * m * res,
        f"the {m} x {slab} lead factor of a grid slab": 8 * m * slab,
        f"the {slab} x {res} product of a grid slab": 8 * slab * res,
        f"the {points} x {dim + 1} coordinates and values of the {res}^{dim} grid": 8 * points * (dim + 1),
    }
    for name, need in arrays.items():
        if need > WORK_BYTES_CAP:
            raise InvalidInputError(f"{name} needs {need} bytes, over the {WORK_BYTES_CAP}-byte cap")
    steps = cert.horizon if cert.horizon is not None else (cert.time or 0.0) / sampling.dt
    if not 0 <= steps <= HORIZON_CAP:
        raise InvalidInputError(f"certificate horizon {steps:g} is not in [0, {HORIZON_CAP}] steps")
    if cert.mode == "zubov" and cert.zubov_steps(sampling.dt) < 1:
        raise InvalidInputError(
            f"zubov certificate horizon {steps:g} steps rounds to 0; a zubov run needs at least 1"
        )


def load_config(path: str | Path, seed_override: int | None = None) -> RunConfig:
    """Parse and validate a run configuration file.

    Any rule violation raises InvalidInputError so the CLI can map the whole
    class to a single exit code. That includes a run larger than
    WORK_BYTES_CAP or HORIZON_CAP and a zubov run of no step, refused
    before any state is built.
    """
    path = Path(path)
    if not path.exists():
        raise InvalidInputError(f"config file not found: {path}")
    spec = read_ini(path, "config", SECTIONS)
    system, sampling = spec["system"], spec["sampling"]
    _check_work_size(
        system.dim, sampling, spec["rrr"].rank, spec["certificate"], spec["output"].grid_resolution
    )
    if spec["domain"].kind == "ball":
        spec["domain"] = DomainSpec.ball(spec["domain"].radius, dim=system.dim)
    cfg = RunConfig(kw=WeightedKernelSpec(spec.pop("kernel"), spec.pop("weight")), **spec)
    if seed_override is not None:
        cfg = cfg.with_seed(seed_override)
    return cfg


EXAMPLE1_CONFIG = """\
[system]
kind = example1

[domain]
kind = ball
radius = 2.0

[sampling]
m = 500
seed = 42
dt = 0.05

[kernel]
kind = gaussian
gamma = 4.0

[weight]
kind = norm-power
exponent = 1.0

[rrr]
rank = 50
beta_scale = 0.01

[certificate]
mode = lyapunov

[output]
dir = out-example1
grid_resolution = 101
"""

EXAMPLE2_CONFIG = """\
[system]
kind = example2

[domain]
kind = box
lo = -2.0, -2.0
hi = 2.0, 2.0

[sampling]
m = 500
seed = 42
dt = 0.025

[kernel]
kind = gaussian
gamma = 4.0

[weight]
kind = norm-power
exponent = 0.5

[eta]
kind = quadratic-norm
scale = 0.5

[rrr]
rank = 50
beta_scale = 0.01

[certificate]
mode = zubov
time = 0.15
nu = 1.0
varsigma = 0.1

[output]
dir = out-example2
grid_resolution = 101
"""
