"""Product states, tile bases, and UPB assembly.

Every state a tile structure induces is a product |a>|b>, stored by its
two factor vectors, so <a b|a' b'> = <a|a'><b|b'> and its m x n
coefficient matrix is the outer product a b^T.  States are deliberately
left unnormalized; modules that need probabilities normalize locally.
``build_upb`` assembles the candidate set of any tile structure; whether
it is unextendible is decided by ``verify.certify_upb``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Tile, TileStructure, validate
from .jsonio import pairs_to_vector, vector_to_pairs

__all__ = [
    "ProductState",
    "UPBSet",
    "inner_product",
    "tile_basis",
    "stopper",
    "build_upb",
    "upb_state_labels",
]

STOPPER_LABEL = ("stopper",)


@dataclass(frozen=True, eq=False)
class ProductState:
    """A product state |a>|b>, stored by its two factor vectors."""

    a_vec: np.ndarray
    b_vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a_vec", np.asarray(self.a_vec, dtype=complex))
        object.__setattr__(self, "b_vec", np.asarray(self.b_vec, dtype=complex))

    @property
    def matrix(self) -> np.ndarray:
        return np.outer(self.a_vec, self.b_vec)

    def to_json_dict(self) -> dict:
        return {"a": vector_to_pairs(self.a_vec), "b": vector_to_pairs(self.b_vec)}

    @classmethod
    def from_json_dict(cls, data: dict) -> ProductState:
        return cls(pairs_to_vector(data["a"]), pairs_to_vector(data["b"]))


def inner_product(s1: ProductState, s2: ProductState) -> complex:
    """<s1|s2> = <a1|a2><b1|b2>, antilinear in the first argument."""
    if (len(s1.a_vec), len(s1.b_vec)) != (len(s2.a_vec), len(s2.b_vec)):
        raise ValueError(
            f"dimension mismatch: {len(s1.a_vec)} x {len(s1.b_vec)} "
            f"vs {len(s2.a_vec)} x {len(s2.b_vec)}"
        )
    return complex(np.vdot(s1.a_vec, s2.a_vec) * np.vdot(s1.b_vec, s2.b_vec))


def tile_basis(tile: Tile, m: int, n: int) -> list[ProductState]:
    """The p*q orthogonal product states of one tile.

    With rows r_0 < ... < r_{p-1} and cols c_0 < ... < c_{q-1}, state
    (k, l) has factors sum_e w_p^{ke} |r_e> and sum_e w_q^{le} |c_e>
    where w_k = exp(2 pi i / k).  States come in row-major (k, l) order;
    (0, 0) is the all-ones state on the tile.
    """
    p, q = len(tile.rows), len(tile.cols)
    states = []
    for k in range(p):
        a = np.zeros(m, dtype=complex)
        a[list(tile.rows)] = np.exp(2j * np.pi * k * np.arange(p) / p)
        for l in range(q):
            b = np.zeros(n, dtype=complex)
            b[list(tile.cols)] = np.exp(2j * np.pi * l * np.arange(q) / q)
            states.append(ProductState(a, b))
    return states


def stopper(m: int, n: int) -> ProductState:
    """The all-ones product state (sum_e |e>)(sum_j |j>)."""
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    return ProductState(np.ones(m, dtype=complex), np.ones(n, dtype=complex))


@dataclass(frozen=True, eq=False)
class UPBSet:
    """An ordered product-state set built from a tile structure.

    ``states`` holds, tile by tile in id order, every tile-basis state
    except the tile's (0,0) all-ones state, followed by the stopper;
    ``missing`` records the s omitted (0,0) states.
    """

    states: tuple[ProductState, ...]
    missing: tuple[ProductState, ...]
    stopper: ProductState
    origin: TileStructure

    @property
    def m(self) -> int:
        return self.origin.m

    @property
    def n(self) -> int:
        return self.origin.n

    def state_labels(self) -> list[tuple]:
        """Per-state labels aligned with ``states``: (tile_id, k, l)
        triples for kept tile-basis states, then the stopper label."""
        return upb_state_labels(self.origin)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "states": [s.to_json_dict() for s in self.states],
            "missing": [s.to_json_dict() for s in self.missing],
            "stopper": self.stopper.to_json_dict(),
            "origin": {
                "m": self.origin.m,
                "n": self.origin.n,
                "grid": [list(row) for row in self.origin.cell_map],
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> UPBSet:
        """Rebuild a set from ``to_json_dict`` output.  Raises ValueError
        when the origin grid fails ``validate``, when m or n disagree
        with it, or when a factor a (b) is not of length m (n); the state
        count is left to the verifier (``check_upb`` reports size_ok)."""
        upb = cls(
            states=tuple(ProductState.from_json_dict(s) for s in data["states"]),
            missing=tuple(ProductState.from_json_dict(s) for s in data["missing"]),
            stopper=ProductState.from_json_dict(data["stopper"]),
            origin=TileStructure.from_grid(data["origin"]["grid"]),
        )
        m, n = upb.m, upb.n
        problems = list(validate(upb.origin).problems)
        if {(data["m"], data["n"]), (data["origin"]["m"], data["origin"]["n"])} != {(m, n)}:
            problems.append(f"m or n disagree with the {m} x {n} origin grid")
        factors = [(len(s.a_vec), len(s.b_vec)) for s in (*upb.states, *upb.missing, upb.stopper)]
        if any(lengths != (m, n) for lengths in factors):
            problems.append(f"a factor's length differs from the {m} x {n} grid")
        if problems:
            raise ValueError("invalid UPB set: " + "; ".join(problems))
        return upb


def upb_state_labels(ts: TileStructure) -> list[tuple]:
    """Labels of build_upb(ts).states in order: (tile_id, k, l) for each
    kept state, then the stopper sentinel."""
    labels: list[tuple] = []
    for tile in ts.tiles:
        p, q = len(tile.rows), len(tile.cols)
        for k in range(p):
            for l in range(q):
                if (k, l) != (0, 0):
                    labels.append((tile.id, k, l))
    labels.append(STOPPER_LABEL)
    return labels


def build_upb(ts: TileStructure) -> UPBSet:
    """Assemble the UPB candidate of a tile structure.

    Keeps every tile-basis state except each tile's (0,0) state, then
    appends the stopper, for mn - s + 1 states in total.  The set is
    unextendible exactly when ts is U-tile (``verify.certify_upb``).
    """
    kept: list[ProductState] = []
    missing: list[ProductState] = []
    for tile in ts.tiles:
        basis = tile_basis(tile, ts.m, ts.n)
        missing.append(basis[0])
        kept.extend(basis[1:])
    stop = stopper(ts.m, ts.n)
    kept.append(stop)
    return UPBSet(states=tuple(kept), missing=tuple(missing), stopper=stop, origin=ts)
