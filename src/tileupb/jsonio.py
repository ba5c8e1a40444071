"""Helpers for the JSON wire format: complex numbers as [re, im] pairs."""

from __future__ import annotations

import numpy as np


def complex_to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def vector_to_pairs(vec: np.ndarray) -> list[list[float]]:
    return [complex_to_pair(z) for z in np.asarray(vec, dtype=complex)]


def pairs_to_vector(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=complex)
