"""The client-space wire path: the per-element JSON walk and the two
disaggregation routines the class-space wire replaced.

``plain`` / ``to_json_plain`` are ``edr/messages.py``'s ``_plain`` and
``WireModel.to_dict`` / ``to_json`` before the encoder became one
``json.dumps`` with a ``default=`` hook; ``expand_rows_weights`` is
``ClassStructure.from_mask``'s weights plus ``expand_rows``, and
``client_rows`` is ``service/plane.py``'s ``_client_rows``, from before
both called :func:`repro.core.aggregate.expand_class_rows`.  The bodies
are verbatim; only the signatures changed (free functions taking the
model, the structure fields, or the plane's coordinator), and
``to_dict_plain`` skips derived (``init=False``) fields, which no model
had before.  ``eager_allocation`` / ``eager_duals`` are the class-space
responses' ``__post_init__`` expansions from before ``allocation`` and
``duals`` became views computed on first read.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

import numpy as np

from repro.core.aggregate import expand_class_rows
from repro.edr.messages import WIRE_VERSION, WireModel
from repro.errors import WireFormatError


def plain(value: Any) -> Any:
    """Recursively convert a field value to plain JSON-compatible types."""
    if isinstance(value, WireModel):
        return to_dict_plain(value)
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return plain(tolist())  # numpy array or scalar
    item = getattr(value, "item", None)
    if callable(item) and not isinstance(value, (str, bytes)):
        return plain(item())  # other scalar wrappers
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise WireFormatError(
        f"field value of type {type(value).__name__} is not wire-encodable")


def to_dict_plain(model: WireModel) -> dict:
    """The enveloped plain-dict form of ``model`` (wire fields only)."""
    out: dict[str, Any] = {"v": WIRE_VERSION, "type": model.TYPE}
    for f in dataclasses.fields(model):
        if f.init:
            out[f.name] = plain(getattr(model, f.name))
    return out


def to_json_plain(model: WireModel) -> str:
    """The enveloped JSON text form of ``model``."""
    return json.dumps(to_dict_plain(model))


def expand_rows_weights(reduced: np.ndarray, class_of_client: np.ndarray,
                        client_demands: np.ndarray,
                        class_demand: np.ndarray) -> np.ndarray:
    """``from_mask``'s weights, then ``expand_rows``' gather and scale."""
    weights = np.take(np.where(class_demand > 0.0, class_demand, np.inf),
                      class_of_client)
    np.divide(client_demands, weights, out=weights)
    Q = np.asarray(reduced, dtype=float)
    P = np.take(Q, class_of_client, axis=0)
    P *= weights[:, None]
    return P


def client_rows(coord, members: list[tuple[str, bytes, float]]) -> np.ndarray:
    """Allocation rows of ``(name, token, demand)`` members, in order."""
    tokens, _, class_demand, rows = coord.class_snapshot()
    index = {t: k for k, t in enumerate(tokens)}
    k = np.array([index[token] for _, token, _ in members], dtype=int)
    demand = np.array([d for _, _, d in members])
    share = np.divide(demand, class_demand[k], out=np.zeros(k.shape),
                      where=class_demand[k] > 0.0)
    return rows[k] * share[:, None]


def eager_allocation(model) -> list:
    """The (C, N) client rows a class-space response stands for, checked."""
    rows = np.asarray(model.class_rows, dtype=float)
    class_demand = np.asarray(model.class_demand, dtype=float)
    class_of = np.asarray(model.class_of)
    demands = np.asarray(model.client_demands, dtype=float)
    K = class_demand.shape[0] if class_demand.ndim == 1 else -1
    if rows.ndim != 2 or rows.shape[0] != K:
        raise WireFormatError(
            "class_rows must hold one row per class_demand entry")
    if class_of.ndim != 1 or demands.shape != class_of.shape:
        raise WireFormatError(
            "class_of and client_demands need one entry per client")
    if class_of.size and (class_of.dtype.kind not in "iu"
                          or class_of.min() < 0 or class_of.max() >= K):
        raise WireFormatError("class_of entries must index class_rows")
    if model.clients is not None and len(model.clients) != class_of.size:
        raise WireFormatError("clients must name every class_of entry")
    class_of = class_of.astype(np.intp, copy=False)
    return expand_class_rows(rows, class_of, demands, class_demand).tolist()


def eager_duals(model) -> list | None:
    """Each client's class multiplier, as ``SolveResponse`` built it."""
    if model.class_duals is None:
        return None
    mu = np.asarray(model.class_duals, dtype=float)
    if mu.shape != (len(model.class_rows),):
        raise WireFormatError("class_duals need one entry per class")
    return mu[np.asarray(model.class_of, dtype=np.intp)].tolist()
