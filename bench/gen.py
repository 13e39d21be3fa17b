"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the
same lattice order, smiles, quote files and command lists. Nothing here
imports ``smilecal``; the program only sees the generated inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from oracle import smile_vol, surface_chi_c

# Table-1 lattice: 6 log-spaced values each of g, rho = n/(g^2 T) and T
LATTICE_G = np.geomspace(0.03, 0.5, 6)
LATTICE_RHO = np.geomspace(2.5, 10.0, 6)
LATTICE_T = np.geomspace(1.0 / 365.0, 4.0, 6)

DESK_SMILES = 20  # distinct smiles per desk round, half adiabatic
DESK_QUOTES = 15  # quotes per generated file
DESK_NOISE = 2e-4  # sd of the vol noise added to every quote
DESK_MATURITIES = (1.0 / 52.0, 1.0 / 12.0, 0.25, 0.5, 1.0)
DESK_SPOT = 100.0
DESK_RATE = 0.02
COORD_KINDS = ("delta", "x", "strike")

# Noisy 8-quote sets: x uniform in +-0.4, vol uniform in [0.05, 0.6], T = 0.5,
# drawn with numpy's default_rng(1), 200 sets. They do not depend on the
# workload seed. Sets 13 and 22 make the fit raise OverflowError from
# math.exp; sets 8 and 11 make it raise "DomainError: n must be positive,
# got 0.0" once exp(ln n) underflows.
NOISY_SEED = 1
NOISY_MATURITY = 0.5
NOISY_OVERFLOW = (13, 22)
NOISY_UNDERFLOW = (8, 11)


def lattice(seed: int) -> list[tuple[float, float, float]]:
    """The 216 (g, rho, T) points in a seeded order."""
    points = [
        (float(g), float(rho), float(t))
        for g, rho, t in product(LATTICE_G, LATTICE_RHO, LATTICE_T)
    ]
    order = np.random.default_rng([seed, 0]).permutation(len(points))
    return [points[i] for i in order]


@dataclass(frozen=True)
class Smile:
    g: float
    chi: float
    n: float
    t: float
    adiabatic: bool  # generated well below (True) or above (False) the critical ratio
    kind: str  # coordinate the quote file uses
    xs: tuple[float, ...]  # true log-return coordinates of the quotes
    vols: tuple[float, ...]  # quoted (noisy) vols

    @property
    def params_arg(self) -> str:
        return f"{self.g!r},{self.chi!r},{self.n!r}"


def make_smile(
    draws: np.ndarray, t: float, adiabatic: bool, kind: str, rng: np.random.Generator
) -> Smile:
    """A smile from three uniform draws in [0, 1) for g, rho and the
    distance of chi from the critical ratio."""
    g = 0.1 + 0.25 * float(draws[0])
    rho = 3.0 + 6.0 * float(draws[1])
    n = rho * g * g * t
    chi_c = surface_chi_c(g, n, t)
    if adiabatic:
        chi = 1.0 + (0.3 + 0.4 * float(draws[2])) * (chi_c - 1.0)
    else:
        chi = chi_c * (1.2 + 0.3 * float(draws[2]))
    x_min = -0.5 * g * g * t
    xs = x_min + math.sqrt(n) * np.linspace(-3.5, 3.5, DESK_QUOTES)
    vols = smile_vol(g, chi, n, t, xs) + rng.normal(0.0, DESK_NOISE, DESK_QUOTES)
    return Smile(g, chi, n, t, adiabatic, kind, tuple(map(float, xs)), tuple(map(float, vols)))


def desk_smiles(seed: int) -> list[Smile]:
    """Half adiabatic, half not. Within each half the (g, rho, chi) draws
    are a Latin hypercube and every maturity appears equally often, so the
    work in a round varies little from seed to seed."""
    rng = np.random.default_rng([seed, 1])
    half = DESK_SMILES // 2
    smiles = []
    for adiabatic in (True, False):
        draws = np.stack(
            [(rng.permutation(half) + rng.uniform(size=half)) / half for _ in range(3)],
            axis=1,
        )
        maturities = rng.permutation(np.resize(DESK_MATURITIES, half))
        for i in range(half):
            kind = COORD_KINDS[i % len(COORD_KINDS)]
            smiles.append(make_smile(draws[i], float(maturities[i]), adiabatic, kind, rng))
    return smiles


def quote_file_text(smile: Smile) -> str:
    """CSV quote file in the smile's coordinate, with context rows."""
    lines = [f"maturity,{smile.t!r}"]
    if smile.kind == "strike":
        lines += [f"spot,{DESK_SPOT!r}", f"rate,{DESK_RATE!r}"]
    lines.append(f"{smile.kind},vol")
    sqrt_t = math.sqrt(smile.t)
    for x, vol in zip(smile.xs, smile.vols):
        if smile.kind == "x":
            coord = x
        elif smile.kind == "strike":
            coord = DESK_SPOT * math.exp(x + DESK_RATE * smile.t)
        else:
            # quoting convention: delta evaluated with the quote's own vol
            z = (0.5 * vol * vol * smile.t - x) / (vol * sqrt_t)
            coord = 0.5 * math.erfc(-z / math.sqrt(2.0))
        lines.append(f"{coord!r},{vol!r}")
    return "\n".join(lines) + "\n"


def noisy_sets() -> dict[str, list[tuple[np.ndarray, np.ndarray]]]:
    """The fixed noisy quote sets, keyed by the fault they hit."""
    rng = np.random.default_rng(NOISY_SEED)
    drawn = []
    for _ in range(max(NOISY_OVERFLOW + NOISY_UNDERFLOW) + 1):
        xs = np.sort(rng.uniform(-0.4, 0.4, 8))
        vols = rng.uniform(0.05, 0.6, 8)
        drawn.append((xs, vols))
    return {
        "overflow": [drawn[i] for i in NOISY_OVERFLOW],
        "underflow": [drawn[i] for i in NOISY_UNDERFLOW],
    }


def noisy_file_text(xs: np.ndarray, vols: np.ndarray) -> str:
    lines = [f"maturity,{NOISY_MATURITY!r}", "x,vol"]
    lines += [f"{float(x)!r},{float(v)!r}" for x, v in zip(xs, vols)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CliOp:
    command: str  # fit | check | refit | density | bl-oracle
    argv: tuple[str, ...]  # arguments of smilecal.cli.main, --out included
    out: str  # output directory of this op
    smile: int  # index into the round's smiles, -1 for a noisy set
    fault: str = ""  # the noisy set's expected fault, "" otherwise


def _op(root: Path, label: str, smile: int, argv: tuple[str, ...], fault: str = "") -> CliOp:
    out = str(root / "out" / label)
    return CliOp(argv[0], argv + ("--out", out), out, smile, fault)


def _shuffled(ops: list[CliOp], seed: int, stream: int) -> list[CliOp]:
    order = np.random.default_rng([seed, stream]).permutation(len(ops))
    return [ops[i] for i in order]


def _quote_files(smiles: list[Smile], root: Path) -> dict[str, str]:
    return {
        str(root / "quotes" / f"s{i:02d}_{s.kind}.csv"): quote_file_text(s)
        for i, s in enumerate(smiles)
    }


def desk_round(seed: int, root: Path) -> tuple[list[Smile], list[CliOp], dict[str, str]]:
    """One desk round: the smiles, the ops in seeded order, and the files
    to write before the round runs (path -> text).

    Every smile gets one op of each command: fit, check (formula mode) and
    refit on its quote file, density and bl-oracle on its parameters. Each
    noisy set gets a fit and a refit."""
    smiles = desk_smiles(seed)
    files = _quote_files(smiles, root)
    qfiles = list(files)
    ops: list[CliOp] = []
    for i, s in enumerate(smiles):
        params = ("--params", s.params_arg, "--maturity", repr(s.t))
        ops += [
            _op(root, f"fit_{i:02d}", i, ("fit", qfiles[i])),
            _op(root, f"check_{i:02d}", i, ("check", qfiles[i], "--mode", "formula")),
            _op(root, f"refit_{i:02d}", i, ("refit", qfiles[i])),
            _op(root, f"density_{i:02d}", i, ("density",) + params),
            _op(root, f"oracle_{i:02d}", i, ("bl-oracle",) + params),
        ]
    for fault, sets in noisy_sets().items():
        for j, (xs, vols) in enumerate(sets):
            qfile = str(root / "quotes" / f"noisy_{fault}_{j}.csv")
            files[qfile] = noisy_file_text(xs, vols)
            for command in ("fit", "refit"):
                ops.append(_op(root, f"noisy_{command}_{fault}_{j}", -1, (command, qfile), fault))
    return smiles, _shuffled(ops, seed, 2), files


def cli_cold_round(seed: int, root: Path) -> tuple[list[Smile], list[CliOp], dict[str, str]]:
    """One cli_cold round of ten commands, drawn from the desk smiles:
    3 check --params (two adiabatic, one not), 2 density --params (one of
    each), 2 fit on delta-quoted files and 3 refit on adiabatic sets."""
    smiles = desk_smiles(seed)
    files = _quote_files(smiles, root)
    qfiles = list(files)
    half = DESK_SMILES // 2
    delta = [i for i, s in enumerate(smiles) if s.kind == "delta"]

    def params(i):
        return ("--params", smiles[i].params_arg, "--maturity", repr(smiles[i].t))

    ops = [_op(root, f"check_{i:02d}", i, ("check",) + params(i)) for i in (0, 1, half)]
    ops += [_op(root, f"density_{i:02d}", i, ("density",) + params(i)) for i in (2, half + 1)]
    ops += [_op(root, f"fit_{i:02d}", i, ("fit", qfiles[i])) for i in (delta[0], delta[-1])]
    ops += [_op(root, f"refit_{i:02d}", i, ("refit", qfiles[i])) for i in (3, 4, 5)]
    return smiles, _shuffled(ops, seed, 3), files
