"""Discriminant identities linking Hom-lattices, Neron-Severi lattices of a
product of CM elliptic curves, and of its Kummer surface, with inverses."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm

from .errors import Frozen, InternalCheckError, bounded_digits
from .quadratic import FundamentalDiscriminant, fundamental_discriminant

# the node lattice of a Kummer surface: fixed rank and discriminant
KUMMER_NODE_LATTICE_RANK = 16
KUMMER_NODE_LATTICE_DISC = 2 ** 6

_ABELIAN_RANKS = (2, 3, 4)
_K3_RANKS = (18, 19, 20)


class CMPair(Frozen):
    """Two CM elliptic curves given by their common field and conductors f1, f2."""

    __slots__ = ("field", "f1", "f2")

    def __init__(self, field: FundamentalDiscriminant, f1: int, f2: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "f1", f1)
        object.__setattr__(self, "f2", f2)
        if self.f1 < 1 or self.f2 < 1:
            raise ValueError(f"conductors must be positive, got {(self.f1, self.f2)}")

    @property
    def conductor_lcm(self) -> int:
        return lcm(self.f1, self.f2)


class LatticeDescriptor(Frozen):
    """Rank and discriminant of a Neron-Severi lattice (abelian surface or K3)."""

    __slots__ = ("rank", "disc")

    def __init__(self, rank: int, disc: int):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "disc", disc)
        if self.rank not in _ABELIAN_RANKS + _K3_RANKS:
            raise ValueError(f"rank must be one of {_ABELIAN_RANKS + _K3_RANKS}, got {self.rank}")
        if self.disc == 0:
            raise ValueError("disc must be nonzero")


class LatticeCMData(namedtuple("LatticeCMData", "field conductor_lcm")):
    """The CM field a lattice is read from, and the lcm of its conductors."""

    __slots__ = ()


def disc_hom(pair: CMPair) -> Fraction:
    """disc Hom(E1, E2) = -lcm(f1,f2)^2 * Delta_K / 4, as an exact rational."""
    disc = Fraction(-pair.conductor_lcm ** 2 * pair.field.value, 4)
    bounded_digits(disc.numerator, "disc Hom(E1, E2)")
    return disc


def disc_ns_product(pair: CMPair) -> int:
    """disc NS(E1 x E2) = lcm(f1,f2)^2 * Delta_K."""
    d = bounded_digits(pair.conductor_lcm ** 2 * pair.field.value, "disc NS(E1 x E2)")
    # cross-check against -(-2)^(rho-2) * disc Hom with rho = 4
    if d != -((-2) ** 2) * disc_hom(pair):
        raise InternalCheckError(f"disc NS(E1 x E2) = {d} is not -4 disc Hom for {pair}")
    return d


def disc_ns_kummer(pair: CMPair) -> int:
    """|disc NS(Kum(E1 x E2))| = 2^2 * lcm(f1,f2)^2 * |Delta_K|."""
    d = bounded_digits(4 * pair.conductor_lcm ** 2 * abs(pair.field.value), "|disc NS(Kum)|")
    if d != 2 ** 4 * abs(disc_hom(pair)):
        raise InternalCheckError(f"|disc NS(Kum)| = {d} is not 16 |disc Hom| for {pair}")
    return d


def parse_lattice(desc: LatticeDescriptor, kind: str) -> LatticeCMData:
    """Invert the CM discriminant identities: recover (Delta_K, lcm(f1,f2)).

    Individual conductors are not recoverable from a lattice discriminant,
    only their lcm.  kind is "abelian" (rank 4, disc = lcm^2 * Delta_K) or
    "kummer" (rank 20, disc = 4 * lcm^2 * |Delta_K|).
    """
    if kind == "abelian":
        if desc.rank != 4:
            raise ValueError(f"CM abelian parse needs rank 4, got {desc.rank}")
        n = desc.disc
        if n >= 0:
            raise ValueError(f"abelian CM discriminant must be negative, got {n}")
    elif kind == "kummer":
        if desc.rank != 20:
            raise ValueError(f"CM Kummer parse needs rank 20, got {desc.rank}")
        if desc.disc <= 0 or desc.disc % 4 != 0:
            raise ValueError(f"Kummer CM discriminant must be positive and divisible by 4, got {desc.disc}")
        n = -(desc.disc // 4)
    else:
        raise ValueError(f"kind must be 'abelian' or 'kummer', got {kind!r}")
    field, m = fundamental_discriminant(n)  # raises if n is not an order discriminant
    return LatticeCMData(field, m)


def cyclic_isogeny_degree(desc: LatticeDescriptor) -> int:
    """For rank 3 (isogenous non-CM factors): minimal cyclic isogeny degree = disc/2."""
    if desc.rank != 3:
        raise ValueError(f"cyclic isogeny degree is defined for rank 3, got rank {desc.rank}")
    if desc.disc <= 0 or desc.disc % 2 != 0:
        raise ValueError(f"rank 3 product discriminant must be a positive even integer, got {desc.disc}")
    return desc.disc // 2


def geometric_brauer_corank(rho: int) -> int:
    """Corank of the geometric Brauer group of an abelian surface: 6 - rho."""
    if not 1 <= rho <= 4:
        raise ValueError(f"NS rank of an abelian surface lies in [1, 4], got {rho}")
    return 6 - rho


def _cli_lattice(delta_k, f1, f2, kind, rank, disc):
    # the runner of cli.TABLE's lattice: the result and its provenance
    compose = delta_k is not None or f1 is not None or f2 is not None
    parse = kind is not None or rank is not None or disc is not None
    if compose == parse:
        from .cli import _CliError
        raise _CliError("lattice takes either --delta-k/--f1/--f2 or --kind/--rank/--disc")
    if compose:
        if None in (delta_k, f1, f2):
            from .cli import _CliError
            raise _CliError("compose direction needs --delta-k, --f1 and --f2")
        pair = CMPair(FundamentalDiscriminant(delta_k), f1, f2)
        result = {
            "conductor_lcm": pair.conductor_lcm,
            "disc_hom": disc_hom(pair),
            "disc_ns_product": disc_ns_product(pair),
            "disc_ns_kummer": disc_ns_kummer(pair),
        }
        return result, "lattices:disc_identities"
    if None in (kind, rank, disc):
        from .cli import _CliError
        raise _CliError("parse direction needs --kind, --rank and --disc")
    data = parse_lattice(LatticeDescriptor(rank=rank, disc=disc), kind)
    return {"delta_k": data.field.value, "conductor_lcm": data.conductor_lcm}, "lattices:parse_lattice"
