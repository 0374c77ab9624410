"""Command-line front end: presets, CSV artifacts, defect reports.

Configuration is a single JSON document passed with --config, with
dotted overrides via --set key=value (values parsed as JSON when
possible).  load_config merges it over DEFAULT_CONFIG, the one place
that holds each default, and builds the run's Grid1D and TimeGrid once,
so every command refuses an invalid grid or time grid.  _build_preset
is the one builder of the four presets and _write_run the one writer of
the simulate artifacts.  The presets are

    wave-wt          wave with boundary observation, every point
                     hyperbolic
    wave-mixed       the same wave split into hyperbolic, parabolic and
                     elliptic thirds
    port-hamiltonian scalar chain with endpoint coupling
    maxwell-lift-1d  two-field system under boundary data, lifted and
                     direct routes side by side

Commands
    wellposed   sweep nu and write wellposed.csv with c_min, the
                smallest eigenvalue of nu M0 + Re M1; certifies M0 >= 0
                and c_min > 0 at nu_max = 2 time.nu, fails otherwise
    simulate    integrate the preset and write trajectory.csv,
                ledger.csv (per-step energy balance) and io.csv
    bdspace     write the boundary space bases and a defect table
    energy      recompute the per-step ledger from a stored
                trajectory.csv

Files are UTF-8 with LF line endings; fields are comma-separated, each
number exactly as '%.17g' % float(value) writes it, by one _format17 call
per block of rows: the digits of |v| scaled in longdouble where they are
provably exact (a zero has the digits 0), else '%.17g' itself (non-finite
values, near-ties, fixed-point values of 10 and more, every value where
longdouble is float64).  Header comments record the sampling seed (env
EVOCTL_SEED, default 12345) and the run parameters, so identical
configurations produce byte-identical output.  write_csv is the one writer
of this layout and _read_csv its one reader, of a table input and of the
trajectory an energy replay takes: a line that starts with '#' is a
comment wherever it stands, blank lines are skipped, the first other line
names the columns and np.loadtxt parses the rows.  Beside the trajectory
of a control preset simulate writes trajectory.npy (_write_sidecar), the
float64 table that _read_csv would parse from it and a check record of the
file's byte length and CRC-32, which write_csv returns; energy takes the
table from there (_read_sidecar) when the record matches the file, and
parses an edited file's text.
A theta-step dissipates the extra (theta - 1/2)<dx|M0 dx> (theta = 1 on
backward Euler steps), shown in the euler_correction column; the defect
column balances each step against its own identity.  simulate, energy and
bdspace share one rule, _verdict: a check passes when its largest |value|
is within the tolerance; a non-finite value fails, the first named by step
or by row.  wellposed certifies c > 0 and reads no tolerance.

Exit status follows one rule: 2 for a configuration or precondition that
is refused before any result is computed (a preset whose system matrices
are not finite, a non-finite input sample, a singular step matrix among
them), 1 for a computed check that fails, and 0 when every check passes.
A run that leaves float64 is a computed check that fails: the theta
recursion carries inf and NaN on, and the check that reads them names its
first non-finite step, with no numpy warning.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import itertools
import json
import math
import os
import re
import sys as _sys
import warnings
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .bdspace import boundary_triple_defect, compute_bd_space, unitarity_defects
from .control import ControlSystem, extract_io, step_ledger
from .errors import EvoctlError, StepSingularityError
from .evolution import (TimeGrid, Trajectory, _require_scheme, c_min, check_wellposed,
                        m0_spectrum, n_euler_init_steps, sample_source, solve, theta_steps)
from .models import (
    PortHamiltonianSpec,
    WaveSpec,
    build_mixed_type_wave,
    build_port_hamiltonian,
    build_weiss_tucsnak_wave,
    maxwell_lift_solve,
    maxwell_system,
    three_region_indicators,
)
from .operators import Grid1D, build_sbp_pair_1d, ibp_defect, matvec

PRESETS = ("wave-wt", "wave-mixed", "port-hamiltonian", "maxwell-lift-1d")
DEFAULT_SEED = 12345

DEFAULT_CONFIG = {
    "preset": "wave-wt",
    "grid": {"a": 0.0, "b": 1.0, "n_cells": 16},
    "time": {"t_end": 1.0, "n_steps": 200, "nu": 1.0},
    "scheme": "implicit_midpoint",
    "input": {"kind": "zero", "freq": 1.0, "amplitude": 1.0, "component": 0,
              "path": None},
    "initial": {"kind": "zero", "amplitude": 1.0, "mode": 1},
    "outdir": ".",
    "tolerance": None,
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; grid and time are built once here."""

    preset: str
    grid: Grid1D
    time: TimeGrid
    scheme: str
    input: dict
    initial: dict
    outdir: str
    tolerance: float | None  # None for wellposed, which reads none


def _merge(base, override, path="config"):
    out = dict(base)
    for key, value in override.items():
        if key not in base:
            raise ValueError(f"unknown configuration key {path}.{key}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ValueError(f"{path}.{key} must be an object")
            out[key] = _merge(base[key], value, f"{path}.{key}")
        else:
            out[key] = value
    return out


def _apply_override(data, dotted, raw):
    keys = dotted.split(".")
    node = data
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ValueError(f"cannot override {dotted} below the non-object key {key!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node[keys[-1]] = value


def _number(name, value, kind=float):
    """A finite float or int; null, bool, non-numeric text and fractional counts are refused."""
    try:
        number = float(None if isinstance(value, bool) else value)  # float(True) is 1.0
    except OverflowError:  # an int beyond the float range
        number = math.inf
    except (TypeError, ValueError):  # null, bool, list, object or text that is no number
        raise ValueError(f"{name} must be a number, got {json.dumps(value)}") from None
    if not math.isfinite(number) or kind(number) != number:
        raise ValueError(f"{name} must be a finite {kind.__name__}, got {value}")
    return kind(number)


def load_config(path, overrides, default_tolerance) -> RunConfig:
    user = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                user = json.load(fh)
        except OSError as exc:  # no file, a directory, no permission
            raise ValueError(f"configuration file {path}: {exc.strerror}") from None
        except ValueError as exc:  # not UTF-8, not JSON
            raise ValueError(f"configuration file {path}: {exc}") from None
        if not isinstance(user, dict):
            raise ValueError("the configuration file must hold a JSON object")
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        _apply_override(user, dotted, raw)
    data = _merge(DEFAULT_CONFIG, user)

    grid, time = data["grid"], data["time"]
    n_steps = _number("time.n_steps", time["n_steps"], int)
    if not 1 <= n_steps < 2 ** 63 - 1:  # numpy counts the n_steps + 1 times in int64
        raise ValueError(f"time.n_steps must be at least 1 and below 2**63 - 1, got {n_steps}")
    if data["preset"] not in PRESETS:
        raise ValueError(f"unknown preset {data['preset']!r}; choose from {PRESETS}")
    _require_scheme(data["scheme"])
    tolerance = data["tolerance"]
    tolerance = default_tolerance if tolerance is None else _number("tolerance", tolerance)
    if tolerance is not None and tolerance <= 0:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    if not isinstance(data["outdir"], str):  # Path() takes text; null, 0 or [1] name no directory
        raise ValueError(f"outdir must be a path string, got {json.dumps(data['outdir'])}")
    return RunConfig(
        preset=data["preset"],
        grid=Grid1D(_number("grid.a", grid["a"]), _number("grid.b", grid["b"]),
                    _number("grid.n_cells", grid["n_cells"], int)),
        time=TimeGrid(t_end=_number("time.t_end", time["t_end"]), n_steps=n_steps,
                      nu=_number("time.nu", time["nu"])),
        scheme=data["scheme"], input=data["input"], initial=data["initial"],
        outdir=data["outdir"], tolerance=tolerance,
    )


def _seed() -> int:
    return int(os.environ.get("EVOCTL_SEED", str(DEFAULT_SEED)))


def _fmt(value) -> str:
    return format(float(value), ".17g")


# Each finite nonzero v is written from N = round(|v| 10^(16 - k)), its 17
# significant digits, scaled in longdouble.  Two roundings of half an ulp (the
# power of ten, the product) put the computed s within
# s eps (1 + eps/4) / (1 - eps/2)^2 < 10^17 eps (1 + 2 eps) = _MARGIN of the
# exact value, so N is exact wherever s lies farther than _MARGIN from a
# half-integer and from the 10^16 and 10^17 edges.  A zero takes N = 0 and the
# exponent 0, which the same tables write as '0' or '-0'.  Every other lane
# (non-finite, near a tie or an edge, fixed point at 10 and above, and all lanes
# where longdouble is float64, whose _MARGIN exceeds 1/2) is written by '%.17g'
# itself.
_EPS = float(np.finfo(np.longdouble).eps)
_MARGIN = 1e17 * _EPS * (1 + 2 * _EPS)
_WIDTH = 32          # bytes of one value: its text, NUL-padded, then the separator
_CELLS = 4096        # values per written block, about 1 MB of temporaries


@functools.cache
def _tables():
    """Powers of ten 10^-300 .. 10^350 (parsed, so correctly rounded) and the
    byte words, NUL-padded, that the formatted values are built of."""
    with np.errstate(all="ignore"):
        pow10 = np.array([f"1e{m}" for m in range(-300, 351)]).astype(np.longdouble)
    # four digits, as they are and with their trailing zeros NUL
    i = np.arange(10000, dtype=np.int32)[:, None]
    digits = (i // np.array([1000, 100, 10, 1], np.int32) % 10 + 48).astype(np.uint8)
    kept = i % np.array([10000, 1000, 100, 10], np.int32) != 0
    groups = np.stack([digits, digits * kept]).view(np.uint32).ravel()
    # sign, the '0.000' of a fixed-point value below 1, first digit and its point
    head = np.array([b"-" * minus + b"0.000"[:zeros + 1] * (zeros > 0) + b"%d" % d + b"." * point
                     for zeros in range(5) for minus in (0, 1) for point in (0, 1)
                     for d in range(10)], dtype="S8").view(np.uint64)
    # the exponent of decimal exponent k at k + 400, none where %g writes fixed point
    tail = np.array([(b"" if -4 <= k <= 16 else b"e%+03d" % k).ljust(7, b"\0") + b","
                     for k in range(-400, 400)], dtype="S8").view(np.uint64)
    return pow10, groups, head, tail


def _format17(v) -> np.ndarray:
    """(v.size, _WIDTH) uint8: the bytes of '%.17g' % x for each x in the
    float64 array v, NUL-padded, and a ',' in the last slot of each row."""
    pow10, groups, head, tail = _tables()
    v = v.ravel()
    ok = np.isfinite(v) & (v != 0)
    a = np.where(ok, np.abs(v), 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    ok &= (k <= 0) | (k > 16)  # a run writes few fixed-point values of 10 and more
    with np.errstate(all="ignore"):
        s = a.astype(np.longdouble) * pow10[316 - k]
        # the edges move out by a second margin, which covers their own
        # rounding; a k that log10 misjudged falls back here
        ok &= s > np.longdouble(10 ** 16) + 2 * _MARGIN
        ok &= s < np.longdouble(10 ** 17) - 0.5 - 2 * _MARGIN
        s[~ok] = 0
        N = s.astype(np.int64)
        frac = (s - N).astype(np.float64)
    ok |= v == 0  # a zero is exact: N = 0 and frac = 0, as far from a tie as any lane
    ok &= np.abs(frac - 0.5) > _MARGIN
    N += frac > 0.5
    # N = d0 g1 g2 g3 g4 in groups of four digits; a group whose successors are
    # all zero loses its own trailing zeros
    d0, r = N // 10 ** 16, N % 10 ** 16
    g = [r // 10 ** 12, r // 10 ** 8 % 10000, r // 10000 % 10000, r % 10000]
    small = (k >= -4) & (k < 0)  # '%g' writes '0.', then -k - 1 zeros, then the digits
    zeros = -k * small
    point0 = (r != 0) & ~small
    out = np.empty((v.size, _WIDTH), np.uint8)
    out.view(np.uint64)[:, 0] = head[((zeros * 2 + np.signbit(v)) * 2 + point0) * 10 + d0]
    out.view(np.uint64)[:, 3] = tail[k + 400]
    stripped = np.ones(v.size, bool)
    for i in (3, 2, 1, 0):
        out.view(np.uint32)[:, 2 + i] = groups[g[i] + 10000 * stripped]
        stripped &= g[i] == 0
    slow = np.flatnonzero(~ok)
    if slow.size:
        text = [b"%.17g" % x for x in v[slow].tolist()]
        out[slow, :-1] = np.array(text, f"S{_WIDTH - 1}").view(np.uint8).reshape(-1, _WIDTH - 1)
    return out


def _text(values) -> np.ndarray:
    """(rows, bytes) uint8: each field of the rows of a block of columns,
    NUL-padded and ended by a ','; str columns as UTF-8."""
    if values.dtype.kind == "U":
        text = np.strings.encode(values)[..., None].view(np.uint8)  # NUL-padded bytes
        return np.pad(text, ((0, 0), (0, 0), (0, 1)), constant_values=44).reshape(len(values), -1)
    values = np.asarray(values, dtype=np.float64)
    return _format17(values).reshape(len(values), values[:1].size * _WIDTH)


def write_csv(path: Path, comments, columns, data):
    """Write the comments, the header and the rows of data, a sequence of
    columns (1-D) and blocks of columns (2-D) with one row per entry, and
    return the file's byte length and CRC-32, taken over the bytes written.

    A str column is written as is, every other value as '%.17g' writes
    float(value), by one _format17 call per block of _CELLS values and run of
    fields between str fields; each block is written without its NUL slots.
    """
    fields = [np.asarray(values) for values in data]
    runs = [list(run) for _, run in itertools.groupby(fields, lambda f: f.dtype.kind == "U")]
    rows = max(1, _CELLS // max(1, sum(f[:1].size for f in fields)))
    with open(path, "wb") as fh:
        block = "".join([f"# {line}\n" for line in comments]
                        + [",".join(columns), "\n"]).encode("utf-8")
        fh.write(block)
        crc = zlib.crc32(block)
        for lo in range(0, len(fields[0]), rows):
            parts = [_text(np.column_stack([f[lo:lo + rows] for f in run])) for run in runs]
            text = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
            text[:, -1] = 10
            block = text.tobytes().translate(None, b"\0")
            fh.write(block)
            crc = zlib.crc32(block, crc)
        return fh.tell(), crc


def _npy_header(shape) -> bytes:
    """The .npy 1.0 header of a little-endian float64 table of this shape."""
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(out, {"descr": "<f8", "fortran_order": False,
                                               "shape": shape})
    return out.getvalue()


def _write_sidecar(path: Path, check, times, states):
    """Write, as a .npy array in row blocks, the float64 table that _read_csv
    takes from the file that write_csv wrote from times and states, then the
    check record: three little-endian uint64, the file's byte length and
    CRC-32 (check, as write_csv returns them) and the table's CRC-32."""
    shape = (len(times), 1 + states.shape[1])
    rows, crc = max(1, _CELLS // shape[1]), 0
    with open(path, "wb") as fh:
        fh.write(_npy_header(shape))
        for lo in range(0, shape[0], rows):
            block = np.asarray(np.column_stack([times[lo:lo + rows], states[lo:lo + rows]]), "<f8")
            fh.write(block)
            crc = zlib.crc32(block, crc)
        fh.write(np.array([*check, crc], "<u8"))


def _read_sidecar(path: Path, shape):
    """The comments and the table of the file path from the sidecar that
    _write_sidecar wrote beside it (path with suffix .npy), or None unless
    its header names a float64 table of this shape, checked before any data
    is read, and its check record matches its table and the file, read in
    chunks.  The CRC-32 guards against an edited or stale file, not a forged one."""
    header = _npy_header(shape)
    try:
        with open(path.with_suffix(".npy"), "rb") as npy, open(path, "rb") as fh:
            if npy.read(len(header)) != header:
                return None
            table = np.empty(shape, "<f8")
            if npy.readinto(table) != table.nbytes:
                return None
            record = npy.read(25)  # a 25th byte is one too many
            comments, crc, line = [], 0, fh.readline()
            while line.startswith(b"#"):  # write_csv writes every comment first
                comments.append(line[1:].decode("utf-8").strip())
                crc, line = zlib.crc32(line, crc), fh.readline()
            crc = zlib.crc32(line, crc)
            while chunk := fh.read(1 << 20):
                crc = zlib.crc32(chunk, crc)
            if record != np.array([fh.tell(), crc, zlib.crc32(table)], "<u8").tobytes():
                return None
    except (OSError, ValueError):  # no sidecar, or a comment that is not UTF-8
        return None
    return comments, table


def _base_comments(cfg: RunConfig):
    return [
        f"seed={_seed()}",
        f"preset={cfg.preset}",
        f"scheme={cfg.scheme}",
        f"grid a={_fmt(cfg.grid.a)} b={_fmt(cfg.grid.b)} n_cells={cfg.grid.n_cells}",
        f"time t_end={_fmt(cfg.time.t_end)} n_steps={cfg.time.n_steps} "
        f"nu={_fmt(cfg.time.nu)}",
    ]


def _initial_profile(cfg: RunConfig, points):
    kind = cfg.initial["kind"]
    if kind == "zero":
        return np.zeros(len(points))
    if kind == "sine":
        amplitude = _number("initial.amplitude", cfg.initial["amplitude"])
        mode = _number("initial.mode", cfg.initial["mode"], int)
        if not math.isfinite(mode * math.pi):
            raise ValueError(f"initial.mode must keep mode * pi finite, got {mode}")
        rel = (np.asarray(points) - cfg.grid.a) / (cfg.grid.b - cfg.grid.a)
        return amplitude * np.sin(mode * np.pi * rel)
    raise ValueError(f"unknown initial kind {kind!r}; use zero or sine")


def _read_csv(path, what):
    """The comments (the text after each '#', stripped), the rows (2-D) and
    the file line number of each row of a file in write_csv's layout; the
    refusal of a file without rows or with a ragged or non-numeric row
    names the file as 'what path', and the bad row by its file line."""
    comments, linenos = [], []

    def rows(fh):
        header = None
        for lineno, line in enumerate(fh, 1):
            if line.startswith("#"):
                comments.append(line[1:].strip())
            elif line.strip() and header is None:
                header = line
            elif line.strip():
                linenos.append(lineno)
                yield line

    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            # a file without rows is refused below, not warned about
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(rows(fh), delimiter=",", ndmin=2)
    except OSError as exc:  # no file, a directory, no permission
        raise ValueError(f"{what} {path}: {exc.strerror}") from None
    except ValueError as exc:
        # loadtxt counts rows, from 1 when the column count changes and from 0
        # when a value does not convert; the refusal names the file line
        first = 1 if "columns changed" in str(exc) else 0
        message = re.sub(r"at row (\d+)", lambda m: f"at line {linenos[int(m[1]) - first]}",
                         str(exc))
        raise ValueError(f"{what} {path}: {message}") from None
    if table.size == 0:
        raise ValueError(f"{what} {path} holds no samples")
    return comments, table, linenos


def _table_signal(path, n_inputs):
    """Interpolating sampler of a CSV table; every value must be finite
    and the time column strictly increasing."""
    _, table, linenos = _read_csv(path, "signal table")
    if table.shape[1] != n_inputs + 1:
        raise ValueError(
            f"signal table {path} must have 1 + {n_inputs} columns, "
            f"got {table.shape[1]}"
        )
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        raise ValueError(f"signal table {path} line {linenos[bad[0]]} holds a "
                         "non-finite value")
    tt = table[:, 0]
    bad = np.flatnonzero(np.diff(tt) <= 0)
    if bad.size:
        raise ValueError(f"signal table {path} line {linenos[bad[0] + 1]}: time "
                         f"{_fmt(tt[bad[0] + 1])} does not exceed {_fmt(tt[bad[0]])}")

    def u(t):
        return np.array([np.interp(t, tt, table[:, 1 + j]) for j in range(n_inputs)])

    return u


def _control_signal(cfg: RunConfig, n_inputs):
    kind = cfg.input["kind"]
    if kind == "zero":
        return None
    if kind == "sinusoid":
        freq = _number("input.freq", cfg.input["freq"])
        if not math.isfinite(freq * cfg.time.t_end):  # the phase of the last sample
            raise ValueError("input.freq must keep input.freq * time.t_end finite, got "
                             f"{freq} * {cfg.time.t_end}")
        amplitude = _number("input.amplitude", cfg.input["amplitude"])
        component = _number("input.component", cfg.input["component"], int)
        if not 0 <= component < n_inputs:
            raise ValueError(
                f"input.component must lie in [0, {n_inputs - 1}], got {component}"
            )

        def u(t):
            out = np.zeros(n_inputs)
            out[component] = amplitude * np.sin(freq * t)
            return out

        return u
    if kind == "table":
        path = cfg.input["path"]
        # open() takes an int for a file descriptor: 1 would read and close stdout
        if path is not None and not isinstance(path, str):
            raise ValueError(f"input.path must be a path string, got {json.dumps(path)}")
        if not path:
            raise ValueError("input.kind=table needs input.path")
        if not os.path.isfile(path):
            raise ValueError(f"input.path must name a file, got {json.dumps(path)}")
        return _table_signal(path, n_inputs)
    raise ValueError(f"unknown input kind {kind!r}; use zero, sinusoid or table")


def _build_preset(cfg: RunConfig):
    """The configured preset's system: a ControlSystem for the wave and
    chain presets, the EvolutionarySystem of the Maxwell pair."""
    grid = cfg.grid
    if cfg.preset == "maxwell-lift-1d":
        return maxwell_system(build_sbp_pair_1d(grid))
    profile = _initial_profile(cfg, grid.nodes())
    if cfg.preset == "port-hamiltonian":
        return build_port_hamiltonian(
            PortHamiltonianSpec(grid=grid, Nmat=[[1.0]], xi1=profile[None, :]))
    spec = WaveSpec(grid=grid, z1=profile)
    if cfg.preset == "wave-wt":
        return build_weiss_tucsnak_wave(spec)
    return build_mixed_type_wave(spec, three_region_indicators(grid))


def _run_comments(cfg: RunConfig, scheme, n_init):
    """Header of a run's files; the scheme is the run's, which an energy
    replay takes from the stored file, not from the configuration."""
    return _base_comments(replace(cfg, scheme=scheme)) + [f"n_euler_init_steps={n_init}"]


# ---------------------------------------------------------------------------
# commands


def cmd_wellposed(cfg: RunConfig, outdir: Path, zero_damping: bool) -> int:
    sys = _build_preset(cfg)
    re_m1 = sys.re_m1()
    if zero_damping:
        if not isinstance(sys, ControlSystem):
            raise ValueError("--zero-damping applies to presets with a Y block")
        # zeroing the y rows and columns of M1 zeroes those of Re M1
        sl = sys.partition.sl_y
        re_m1[sl, :] = 0.0
        re_m1[:, sl] = 0.0

    # Re M1 is Hermitian, so check_wellposed takes it for M1: its real part is
    # itself, bit for bit.  An infinite nu_max is refused before the sweep.
    report = check_wellposed(sys.M0, re_m1, nu_max=2.0 * cfg.time.nu)
    nu_values = [(k + 1) * (2.0 * cfg.time.nu) / 16.0 for k in range(16)]
    write_csv(outdir / "wellposed.csv", _base_comments(cfg), ("nu", "c_min"),
              [nu_values, c_min(sys.M0, re_m1, nu_values)])

    if not report.ok:
        print(f"well-posedness fails: best c = {report.c:.6e} at nu = "
              f"{report.nu0:.6e} (need c > 0)")
        if report.witness is not None:
            witness = ", ".join(_fmt(v) for v in report.witness)
            print(f"witness direction: [{witness}]")
        return 1
    print(f"well-posed with c = {report.c:.6e} at nu = {report.nu0:.6e}")
    return 0


def _verdict(checks, summary=None) -> int:
    """Exit status of the (label, values, tolerance) checks, 1 unless each
    largest |value| is within its tolerance.  Prints summary (by default each
    largest |value|) and names the first non-finite value (and step) if any."""
    worst = [np.abs(values).max() for _, values, _ in checks]
    print(summary or "\n".join(f"{label} max = {top:.6e} (tolerance {tolerance:.0e})"
                               for (label, _, tolerance), top in zip(checks, worst)))
    for label, values, _ in checks:
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            print(f"{label} is not finite" + (f" at step {bad[0]}" if np.ndim(values) else ""))
            break
    return 0 if all(top <= tolerance for top, (_, _, tolerance) in zip(worst, checks)) else 1


def _ledger_columns(led, times):
    with np.errstate(all="ignore"):  # a non-finite defect is named by _verdict
        drop = led.energy[:-1] - led.energy[1:]
        defect = drop - (led.dissipation - led.supply) - led.correction
    return [times[:-1], times[1:], drop, led.dissipation, led.supply, led.correction,
            defect], defect


LEDGER_COLUMNS = ("t_a", "t_b", "stored_drop", "dissipation", "supply",
                  "euler_correction", "defect")


def _write_run(cfg: RunConfig, outdir: Path, traj: Trajectory, y, ledger,
               ledger_note=None):
    """Write a simulate run: trajectory.csv with the states at traj.grid.times(),
    beside it, for the presets that energy replays, its table as
    trajectory.npy, io.csv with one row (sample time, traj.inputs, y) per
    step, and ledger.csv, whose header gains ledger_note when one is given."""
    # every command-line run is real (all presets, sources and profiles are)
    comments = _run_comments(cfg, traj.scheme, traj.n_euler_init_steps) + ["max_imag=0"]
    columns = ("t",) + tuple(f"x{i}" for i in range(traj.states.shape[1]))
    times = traj.grid.times()
    check = write_csv(outdir / "trajectory.csv", comments, columns, [times, traj.states])
    if cfg.preset != "maxwell-lift-1d":
        _write_sidecar(outdir / "trajectory.npy", check, times, traj.states)
    io_columns = ("t",) + tuple(f"u{i}" for i in range(traj.inputs.shape[1])) \
        + tuple(f"y{i}" for i in range(y.shape[1]))
    write_csv(outdir / "io.csv", comments, io_columns,
              [traj.sample_times(), traj.inputs, y])
    if ledger_note is not None:
        comments.append(ledger_note)
    write_csv(outdir / "ledger.csv", comments, LEDGER_COLUMNS, ledger)


def _simulate_control(cfg: RunConfig, outdir: Path) -> int:
    sys = _build_preset(cfg)
    traj = solve(sys, sys.x0, _control_signal(cfg, sys.partition.n_u1), cfg.time, cfg.scheme)
    ledger, defects = _ledger_columns(step_ledger(sys, traj), traj.grid.times())
    _write_run(cfg, outdir, traj, extract_io(sys, traj).y_samples, ledger)
    return _verdict([("ledger defect", defects, cfg.tolerance)])


def _simulate_maxwell(cfg: RunConfig, outdir: Path) -> int:
    pair = build_sbp_pair_1d(cfg.grid)
    bdD = compute_bd_space(pair, "D")
    u_samples = sample_source(_control_signal(cfg, bdD.dim), cfg.time.times(), bdD.dim)
    E0 = _initial_profile(cfg, cfg.grid.nodes())
    lifted, direct = maxwell_lift_solve(pair, None, None, u_samples,
                                        (E0, np.zeros(pair.n_cells)), cfg.time, cfg.scheme, bdD)

    nn = pair.n_nodes
    x = direct.states
    # values that leave float64 are written as they are; a non-finite gap is named by _verdict
    with np.errstate(all="ignore"):
        energy = 0.5 * ((pair.W0 * np.abs(x[:, :nn]) ** 2).sum(axis=1)
                        + (pair.W1 * np.abs(x[:, nn:]) ** 2).sum(axis=1))
        drop = energy[:-1] - energy[1:]
        gaps = np.abs(lifted.states[1:] - direct.states[1:]).max(axis=1)
        y = direct.x_theta(0, cfg.time.n_steps)[:, nn:] @ bdD.projector.T
    times = direct.grid.times()
    zero = np.zeros(cfg.time.n_steps)
    _write_run(cfg, outdir, direct, y,
               [times[:-1], times[1:], drop, zero, zero, zero, gaps],
               "defect column = distance between the lifted and direct routes")
    return _verdict([("route gap", gaps, cfg.tolerance)])


def cmd_simulate(cfg: RunConfig, outdir: Path) -> int:
    try:
        if cfg.preset == "maxwell-lift-1d":
            return _simulate_maxwell(cfg, outdir)
        return _simulate_control(cfg, outdir)
    except StepSingularityError as exc:
        raise StepSingularityError(f"{exc}; the time step and the cell width (time.t_end, "
                                   "time.n_steps, grid.a, grid.b, grid.n_cells) set the step "
                                   "matrix", exc.cond_estimate) from None


def cmd_bdspace(cfg: RunConfig, outdir: Path) -> int:
    pair = build_sbp_pair_1d(cfg.grid)
    bdG = compute_bd_space(pair, "G")
    bdD = compute_bd_space(pair, "D")
    comments = _base_comments(cfg)

    # one row per point i of each basis vector j
    parts = [(np.full(space.basis.size, side), np.full(space.basis.size, space.dim),
              *np.divmod(np.arange(space.basis.size), space.basis.shape[0]),
              space.basis.T.ravel()) for side, space in (("G", bdG), ("D", bdD))]
    write_csv(outdir / "bd_basis.csv", comments,
              ("side", "dimension", "basis_index", "point_index", "value"),
              [np.concatenate(column) for column in zip(*parts)])

    rng = np.random.default_rng(_seed())
    # on the tiniest cells the transport leaves float64; a defect that is not
    # finite is reported by its row, not by numpy warnings
    with np.errstate(all="ignore"):
        unit_gd, unit_dg = unitarity_defects(bdG, bdD, pair)

        # 50 draws of a cell vector z and a node vector v, in the order of one
        # draw of each per row
        Z, V = np.split(rng.standard_normal((50, pair.n_cells + pair.n_nodes)), [pair.n_cells], 1)
        # np.linalg.norm of one vector is the square root of its BLAS dot
        norm_z, norm_v = np.sqrt(np.vecdot(Z, Z)), np.sqrt(np.vecdot(V, V))
        dec_div = np.abs(matvec(pair.D, Z) - matvec(pair.minimal_div(), Z)
                         - matvec(pair.T, Z) / pair.W0).max(axis=1) / norm_z
        dec_grad = np.abs(matvec(pair.G, V) - matvec(pair.minimal_grad(), V)
                          - matvec(pair.T.T, V) / pair.W1).max(axis=1) / norm_v
        green = ibp_defect(pair, V, Z) / (norm_v * norm_z)
        # the Green identity of (Gamma_0, Gamma_1) pairs each draw with the next, cyclically
        size = norm_v + norm_z
        triple = boundary_triple_defect(pair, V, Z, np.roll(V, -1, 0), np.roll(Z, -1, 0),
                                        bdG, bdD) / (size * np.roll(size, -1))

    # np.max propagates NaN where the builtin max would skip it
    defect_rows = [
        ("unitarity_node_to_cell", bdG.dim, unit_gd),
        ("unitarity_cell_to_node", bdD.dim, unit_dg),
        ("decomposition_div", bdD.dim, np.max(dec_div)),
        ("decomposition_grad", bdG.dim, np.max(dec_grad)),
        ("green_identity", bdG.dim, np.max(green)),
        ("boundary_triple", bdG.dim, np.max(triple)),
    ]
    write_csv(outdir / "bd_defects.csv", comments, ("check", "dimension", "defect"),
              list(zip(*defect_rows)))

    summary = (f"boundary space dimensions: G = {bdG.dim}, D = {bdD.dim}; worst defect = "
               f"{np.max([row[2] for row in defect_rows]):.6e} (tolerance {cfg.tolerance:.0e})")
    if bdG.dim != bdD.dim:
        print(f"{summary}\ndimension mismatch between the node and cell sides")
        return 1
    return _verdict([(f"{row} defect", defect, cfg.tolerance)
                     for row, _, defect in defect_rows], summary)


def cmd_energy(cfg: RunConfig, outdir: Path, trajectory_path) -> int:
    if cfg.preset == "maxwell-lift-1d":
        raise ValueError(
            "the energy command replays control-system presets; the maxwell "
            "preset reports its route gap under simulate"
        )
    sys = _build_preset(cfg)
    tg = cfg.time
    path = Path(trajectory_path) if trajectory_path is not None \
        else outdir / "trajectory.csv"
    # the table simulate wrote beside an unedited file, else the file's text
    comments, table = _read_sidecar(path, (tg.n_steps + 1, 1 + sys.dim)) \
        or _read_csv(path, "trajectory file")[:2]
    times, states = table[:, 0], table[:, 1:]
    meta = dict(line.partition("=")[::2] for line in comments)
    if states.shape != (tg.n_steps + 1, sys.dim):
        raise ValueError(
            f"stored trajectory has shape {states.shape}, the configured run "
            f"needs ({tg.n_steps + 1}, {sys.dim}) from time.n_steps, preset and grid.n_cells"
        )
    scheme = meta.get("scheme", cfg.scheme)
    _require_scheme(scheme, f"the scheme stored in {path}")

    grid_times = tg.times()
    # written so that a NaN time fails the comparison
    if not np.abs(grid_times - times).max() <= 1e-9 * max(1.0, tg.t_end):
        raise ValueError("stored time column does not match the configured time.t_end")

    # the theta = 1 start-up steps of a midpoint run follow from the system
    n_init = n_euler_init_steps(scheme, m0_spectrum(sys.M0, sys.re_m1()))
    header = _run_comments(cfg, scheme, n_init)
    for line in header:
        if line.startswith(("preset=", "grid ", "n_euler_init_steps=")) \
                and line not in comments:
            raise ValueError(f"stored trajectory {path} lacks '# {line}' of the "
                             "configured run")
    n_u1 = sys.partition.n_u1
    u = sample_source(_control_signal(cfg, n_u1),
                      tg.sample_times(theta_steps(scheme, tg.n_steps, n_init)), n_u1)
    traj = Trajectory(tg, states, u, scheme, n_init)

    led = step_ledger(sys, traj)
    ledger, defects = _ledger_columns(led, grid_times)
    write_csv(outdir / "ledger.csv", header + [f"source={path.name}"], LEDGER_COLUMNS, ledger)
    total = led.summed(grid_times, n_init)
    print(f"stored drop {total.stored_drop:.6e}, dissipation {total.dissipation:.6e},"
          f" supply {total.supply:.6e} over {total.interval}")
    return _verdict([("ledger defect", defects, cfg.tolerance)])


# ---------------------------------------------------------------------------
# entry point


DEFAULT_TOLERANCES = {
    "simulate": 1e-9,
    "energy": 1e-9,
    "bdspace": 1e-10,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="evoctl",
        description="evolutionary boundary control presets and defect reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "wellposed": "sweep nu and certify positivity of nu M0 + Re M1",
        "simulate": "integrate a preset and write trajectory, ledger and io files",
        "bdspace": "write boundary space bases and defect table",
        "energy": "recompute the per-step ledger from a stored trajectory",
    }
    for name, help_text in specs.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", default=None,
                         help="path to a JSON configuration file")
        cmd.add_argument("--set", dest="overrides", action="append", default=[],
                         metavar="KEY=VALUE",
                         help="override a configuration entry (dotted keys)")
        if name == "wellposed":
            cmd.add_argument("--zero-damping", action="store_true",
                             help="zero the damping on the observation block")
        if name == "energy":
            cmd.add_argument("--trajectory", default=None,
                             help="stored trajectory.csv (default: outdir)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # one 'warning: <message>' line per warning, without the source line
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=_sys.stderr)
        try:
            cfg = load_config(args.config, args.overrides,
                              DEFAULT_TOLERANCES.get(args.command))
            outdir = Path(cfg.outdir)
            try:
                outdir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:  # a name too long, a file in the way, no permission
                raise ValueError(f"outdir cannot be created: {exc}") from None
            if args.command == "wellposed":
                return cmd_wellposed(cfg, outdir, args.zero_damping)
            if args.command == "simulate":
                return cmd_simulate(cfg, outdir)
            if args.command == "bdspace":
                return cmd_bdspace(cfg, outdir)
            return cmd_energy(cfg, outdir, args.trajectory)
        except (EvoctlError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=_sys.stderr)
            return 2
        except MemoryError as exc:  # an array too large to allocate or to address
            sizes = "grid.n_cells" if args.command in ("wellposed", "bdspace") \
                else "time.n_steps and grid.n_cells"
            print(f"error: the arrays that {sizes} size cannot be allocated ({exc})",
                  file=_sys.stderr)
            return 2


if __name__ == "__main__":
    status = main()
    # The interpreter's finalization runs full collections over the ~21k
    # objects the package and numpy leave tracked; frozen, they are skipped.
    # Nothing waits on a collection: every file is closed by `with`, and
    # evoctl defines no __del__.
    gc.freeze()
    raise SystemExit(status)
