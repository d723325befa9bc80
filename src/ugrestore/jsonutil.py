"""Conversion of numpy-laden structures into plain JSON-serializable data."""

from __future__ import annotations

import math

import numpy as np


def plain(obj):
    """Recursively convert numpy scalars/arrays to built-in types.

    A non-finite float becomes None, written as ``null``: JSON (RFC 8259)
    has no NaN or Infinity.
    """
    if isinstance(obj, dict):
        return {_key(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [plain(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _key(k):
    if isinstance(k, (np.integer,)):
        return int(k)
    if isinstance(k, (np.floating,)):
        return float(k)
    return k
