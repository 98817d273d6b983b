"""Run configuration: one sectioned key=value file determines a pipeline run."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
from pathlib import Path

from .certificates import HORIZON_CAP
from .dynsys import DomainSpec, SystemSpec
from .errors import InvalidInputError
from .estimator import EtaSpec, RRRConfig
from .kernels import KernelSpec, WeightedKernelSpec, WeightSpec

CERTIFICATE_MODES = ("lyapunov", "zubov")
# Largest dense float64 array a run may ask for: the m x m Grams of the fit
# or the m x resolution^dim Gram of a grid (see README, "Work-size cap").
WORK_BYTES_CAP = 512 * 2**20


@dataclass(frozen=True)
class SamplingConfig:
    m: int
    seed: int
    dt: float

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
    tol: float = 1e-6
    horizon: int | None = None
    time: float | None = None
    nu: float = 1.0
    varsigma: float = 0.1
    delta: float = 0.05

    def __post_init__(self) -> None:
        if self.mode not in CERTIFICATE_MODES:
            raise InvalidInputError(f"certificate mode must be one of {CERTIFICATE_MODES}")
        if self.tol <= 0 or self.delta <= 0 or self.delta >= 1:
            raise InvalidInputError("tol must be positive and delta in (0, 1)")
        if self.nu < 1 or self.varsigma <= 0:
            raise InvalidInputError("nu must be >= 1 and varsigma > 0")

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
        if self.certificate.mode == "zubov" and self.eta is None:
            raise InvalidInputError("zubov certificate mode requires an [eta] section")

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, sampling=replace(self.sampling, seed=seed))


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in raw.split(","))


def _system(cp: configparser.ConfigParser) -> SystemSpec:
    kind = cp.get("system", "kind")
    if kind == "example1":
        return SystemSpec.example1()
    if kind == "example2":
        return SystemSpec.example2()
    if kind == "linear-contraction":
        return SystemSpec.linear_contraction(
            a=cp.getfloat("system", "a"),
            dim=cp.getint("system", "dim", fallback=2),
        )
    raise InvalidInputError(f"unknown system kind {kind!r}")


def _domain(cp: configparser.ConfigParser, dim: int) -> DomainSpec:
    kind = cp.get("domain", "kind")
    if kind == "ball":
        return DomainSpec.ball(cp.getfloat("domain", "radius"), dim=dim)
    if kind == "box":
        return DomainSpec.box(_floats(cp.get("domain", "lo")), _floats(cp.get("domain", "hi")))
    raise InvalidInputError(f"unknown domain kind {kind!r}")


def _check_keys(cp: configparser.ConfigParser) -> None:
    """Refuse any section or key outside the documented set (README, "Configuration")."""
    known = {
        "system": ("kind", "a", "dim"),
        "domain": ("kind", "radius", "lo", "hi"),
        "sampling": ("m", "seed", "dt"),
        "kernel": ("kind", "gamma"),
        "weight": ("kind", "exponent", "floor"),
        "eta": ("kind", "scale"),
        "rrr": ("rank", "beta", "beta_scale"),
        "certificate": ("mode", "tol", "horizon", "time", "nu", "varsigma", "delta"),
        "output": ("dir", "grid_resolution"),
    }
    if cp.defaults():
        raise InvalidInputError("config has an unknown section [DEFAULT]")
    for section in cp.sections():
        if section not in known:
            raise InvalidInputError(
                f"config has an unknown section [{section}]; expected one of {', '.join(known)}"
            )
        for key in cp[section]:
            if key not in known[section]:
                raise InvalidInputError(
                    f"config has an unknown key {key!r} in [{section}]; "
                    f"expected one of {', '.join(known[section])}"
                )


def _check_work_size(dim: int, sampling: SamplingConfig, cert: CertificateConfig, res: int) -> None:
    """Refuse a Gram above WORK_BYTES_CAP bytes or a horizon outside [0, HORIZON_CAP] steps."""
    m = sampling.m
    need = 8 * m * max(m, res ** min(dim, 32))  # 2^32 grid points already pass the cap
    if need > WORK_BYTES_CAP:
        raise InvalidInputError(
            f"m = {m} with a {res}^{dim} grid needs a {need}-byte Gram, over the "
            f"{WORK_BYTES_CAP}-byte cap"
        )
    steps = cert.horizon if cert.horizon is not None else (cert.time or 0.0) / sampling.dt
    if not 0 <= steps <= HORIZON_CAP:
        raise InvalidInputError(f"certificate horizon {steps:g} is not in [0, {HORIZON_CAP}] steps")


def load_config(path: str | Path, seed_override: int | None = None) -> RunConfig:
    """Parse and validate a run configuration file.

    Any rule violation raises InvalidInputError so the CLI can map the whole
    class to a single exit code. That includes a run larger than
    WORK_BYTES_CAP or HORIZON_CAP, refused before any state is built.
    """
    path = Path(path)
    if not path.exists():
        raise InvalidInputError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise InvalidInputError(f"malformed config {path}: {exc}") from exc

    _check_keys(cp)
    for section in ("system", "domain", "sampling", "kernel", "weight", "rrr"):
        if not cp.has_section(section):
            raise InvalidInputError(f"config is missing the [{section}] section")

    try:
        system = _system(cp)
        sampling = SamplingConfig(
            m=cp.getint("sampling", "m"),
            seed=cp.getint("sampling", "seed", fallback=0),
            dt=cp.getfloat("sampling", "dt"),
        )
        kw = WeightedKernelSpec(
            KernelSpec(
                kind=cp.get("kernel", "kind", fallback="gaussian"),
                gamma=cp.getfloat("kernel", "gamma", fallback=4.0),
            ),
            WeightSpec(
                kind=cp.get("weight", "kind"),
                exponent=cp.getfloat("weight", "exponent", fallback=1.0),
                floor=cp.getfloat("weight", "floor", fallback=1e-8),
            ),
        )
        beta_raw = cp.get("rrr", "beta", fallback=None)
        rrr = RRRConfig(
            rank=cp.getint("rrr", "rank"),
            beta=float(beta_raw) if beta_raw else None,
            beta_scale=cp.getfloat("rrr", "beta_scale", fallback=0.01),
        )
        eta = None
        if cp.has_section("eta"):
            eta = EtaSpec(
                kind=cp.get("eta", "kind", fallback="quadratic-norm"),
                scale=cp.getfloat("eta", "scale"),
            )
        horizon_raw = cp.get("certificate", "horizon", fallback=None)
        time_raw = cp.get("certificate", "time", fallback=None)
        certificate = CertificateConfig(
            mode=cp.get("certificate", "mode", fallback="lyapunov"),
            tol=cp.getfloat("certificate", "tol", fallback=1e-6),
            horizon=int(horizon_raw) if horizon_raw else None,
            time=float(time_raw) if time_raw else None,
            nu=cp.getfloat("certificate", "nu", fallback=1.0),
            varsigma=cp.getfloat("certificate", "varsigma", fallback=0.1),
            delta=cp.getfloat("certificate", "delta", fallback=0.05),
        ) if cp.has_section("certificate") else CertificateConfig()
        output = OutputConfig(
            dir=cp.get("output", "dir", fallback="out"),
            grid_resolution=cp.getint("output", "grid_resolution", fallback=101),
        ) if cp.has_section("output") else OutputConfig()
        _check_work_size(system.dim, sampling, certificate, output.grid_resolution)
        domain = _domain(cp, system.dim)
    except (ValueError, configparser.Error) as exc:
        if isinstance(exc, InvalidInputError):
            raise
        raise InvalidInputError(f"bad value in config {path}: {exc}") from exc

    cfg = RunConfig(
        system=system,
        domain=domain,
        sampling=sampling,
        kw=kw,
        rrr=rrr,
        certificate=certificate,
        output=output,
        eta=eta,
    )
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
tol = 1e-6

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
