"""Run configuration: flat key=value files plus command-line overrides."""

import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .timestepping import SCHEMES

OE_MODES = ("off", "cw", "ri")
BP_MODES = ("off", "zxs", "dcw")

_OE_CANONICAL = {"off": "off", "cw": "componentwise", "ri": "rioe"}


@dataclass
class RunConfig:
    problem: str = None
    k: int = 1
    rk: str = None            # rk22 | rk33 | rk54 (default matches k)
    oe: str = "cw"            # off | cw | ri
    bp: str = "off"           # off | zxs | dcw
    mesh: str = None          # mesh file path; overrides the problem recipe
    gen: str = None           # "nx,ny" structured-generator override
    level: int = 0
    tend: float = None
    cfl: float = 1.0
    out: str = None
    output_times: str = ""    # comma-separated times
    max_steps: int = 1_000_000
    sample_grid: int = 0      # optional uniform point sampling resolution

    def validate(self, model=None):
        if self.problem is None and self.mesh is None:
            raise ConfigError("field 'problem': no problem or mesh given")
        if not 1 <= self.k <= 4:
            raise ConfigError(f"field 'k': {self.k} outside 1..4")
        if self.oe not in OE_MODES:
            raise ConfigError(f"field 'oe': {self.oe!r} not in {OE_MODES}")
        if self.bp not in BP_MODES:
            raise ConfigError(f"field 'bp': {self.bp!r} not in {BP_MODES}")
        if self.bp != "off" and self.k not in (1, 2):
            raise ConfigError("field 'bp': limiting requires k in (1, 2)")
        if (self.oe == "ri" and model is not None
                and not model.momentum_components):
            raise ConfigError("field 'oe': 'ri' requires a model with momentum")
        if self.rk is not None and self.rk not in SCHEMES:
            raise ConfigError(f"field 'rk': unknown scheme {self.rk!r}")
        if not (math.isfinite(self.cfl) and self.cfl > 0):
            raise ConfigError(f"field 'cfl': {self.cfl!r} is not a finite "
                              "number > 0")
        # tend = 0 is a zero-duration run: the initial state and metadata
        if self.tend is not None and not (math.isfinite(self.tend)
                                          and self.tend >= 0):
            raise ConfigError(f"field 'tend': {self.tend!r} is not a finite "
                              "number >= 0")
        if self.level < 0:
            raise ConfigError(f"field 'level': {self.level} < 0")
        if self.max_steps < 1:
            raise ConfigError(f"field 'max_steps': {self.max_steps} < 1")
        if self.sample_grid < 0:
            raise ConfigError(f"field 'sample_grid': {self.sample_grid} < 0")
        if self.gen is not None:
            try:
                nx, ny = (int(v) for v in self.gen.split(","))
            except ValueError:
                raise ConfigError("field 'gen': expected 'nx,ny'") from None
            if nx < 1 or ny < 1:
                raise ConfigError("field 'gen': nx, ny must be >= 1")
        return self

    @property
    def oe_mode(self):
        return _OE_CANONICAL[self.oe]

    @property
    def bp_scheme(self):
        return None if self.bp == "off" else self.bp

    @property
    def times(self):
        if not self.output_times:
            return ()
        try:
            return tuple(float(v) for v in self.output_times.split(","))
        except ValueError:
            raise ConfigError("field 'output_times': expected comma-separated "
                              "numbers") from None


_CASTS = {"int": int, "float": float, "str": str, int: int, float: float,
          str: str}
_TYPES = {f.name: _CASTS.get(f.type, str) for f in fields(RunConfig)}


def load_config(path):
    """Parse a flat key=value file into a RunConfig (no validation)."""
    cfg = RunConfig()
    with open(path) as f:
        for ln, raw in enumerate(f, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"field line {ln}: expected key=value")
            key, value = (s.strip() for s in text.split("=", 1))
            if key not in _TYPES:
                raise ConfigError(f"field {key!r}: unknown configuration key")
            try:
                setattr(cfg, key, _TYPES[key](value))
            except ValueError:
                raise ConfigError(
                    f"field {key!r}: cannot parse {value!r}") from None
    return cfg
