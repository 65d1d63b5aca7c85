"""Model persistence: a single JSON document per fitted model."""

import json

import numpy as np

from .data import ScalingSpec
from .model import (DcComponent, DcModel, MaxMinAffine, check_map, validate_model,
                    variant_spec)

FORMAT_VERSION = 1
PIECE_KEYS = ("pieces", "secondary_pieces")   # one key per component, in order


class ModelFormatError(ValueError):
    """Raised for unreadable, mis-versioned, or schema-violating model files."""


def _pieces_payload(comp: DcComponent):
    return [{"b": float(b), "w": [float(v) for v in w], "c": int(c)}
            for b, w, c in zip(comp.biases, comp.weights, comp.center_idx)]


def _component_from(payload, kind, centers):
    biases = np.array([p["b"] for p in payload], dtype=float)
    weights = np.array([p["w"] for p in payload], dtype=float)
    idx = [p.get("c", i) for i, p in enumerate(payload)]
    if not all(isinstance(c, int) and not isinstance(c, bool) for c in idx):
        raise ModelFormatError("center indices must be integers")
    return DcComponent(kind, centers, biases, weights, np.array(idx, dtype=np.int64))


def model_payload(model: DcModel, scaling_spec: ScalingSpec = None) -> dict:
    payload = {
        "format_version": FORMAT_VERSION,
        "variant": model.variant,
        "kind": model.component.kind,
        "offset": float(model.offset),
        "centers": [[float(v) for v in row] for row in model.component.centers],
    }
    for key, comp in zip(PIECE_KEYS, model.components()):
        payload[key] = _pieces_payload(comp)
    if model.mma is not None:
        payload["mma"] = {
            "biases": model.mma.biases.tolist(),
            "slopes": model.mma.slopes.tolist(),
        }
    if model.x_shift is not None:
        payload["standardization"] = {
            "x_shift": model.x_shift.tolist(),
            "x_scale": model.x_scale.tolist(),
            "y_shift": float(model.y_shift),
            "y_scale": float(model.y_scale),
        }
    if scaling_spec is not None:
        payload["scaling_spec"] = {
            "mode": scaling_spec.mode,
            "shift": scaling_spec.shift.tolist(),
            "scale": scaling_spec.scale.tolist(),
            "y_mean": float(scaling_spec.y_mean),
            "y_std": float(scaling_spec.y_std),
        }
    return payload


def model_from_payload(payload: dict):
    """(model, scaling spec or None); ModelFormatError for anything malformed,
    including what ``validate_model`` rejects and a non-finite or wrong-length scaling spec."""
    if not isinstance(payload, dict):
        raise ModelFormatError("model file must contain a JSON object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format_version {version!r}; "
                               f"this build reads version {FORMAT_VERSION}")
    try:
        kind = payload["kind"]
        centers = np.asarray(payload["centers"], dtype=float)
        n_comp = len(variant_spec(payload["variant"]).signs)
        comps = [_component_from(payload[key], kind, centers) for key in PIECE_KEYS[:n_comp]]
        if any(key in payload for key in PIECE_KEYS[n_comp:]):
            raise ModelFormatError(f"a {payload['variant']} model has {n_comp} component(s)")
        mma = None
        if "mma" in payload:
            mma = MaxMinAffine(np.asarray(payload["mma"]["biases"], dtype=float),
                               np.asarray(payload["mma"]["slopes"], dtype=float))
        kwargs = {}
        if "standardization" in payload:
            s = payload["standardization"]
            kwargs = dict(x_shift=np.asarray(s["x_shift"], dtype=float),
                          x_scale=np.asarray(s["x_scale"], dtype=float),
                          y_shift=float(s["y_shift"]), y_scale=float(s["y_scale"]))
        model = DcModel(payload["variant"], *comps, offset=float(payload["offset"]),
                        mma=mma, **kwargs)
        validate_model(model)
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model file: {exc}") from exc
    scaling = None
    if "scaling_spec" in payload:
        try:
            s = payload["scaling_spec"]
            scaling = ScalingSpec(s["mode"], np.asarray(s["shift"], dtype=float),
                                  np.asarray(s["scale"], dtype=float),
                                  float(s["y_mean"]), float(s["y_std"]))
            check_map(scaling.shift, scaling.scale, scaling.y_mean, scaling.y_std, model.d,
                      "scaling spec")
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"malformed scaling spec: {exc}") from exc
    return model, scaling


def save_model(model: DcModel, path, scaling_spec: ScalingSpec = None) -> None:
    """Write a model (and optionally its input scaling) as JSON.

    Floats are written via Python's shortest round-trip repr, so a
    save/load cycle reproduces every double bit-for-bit.
    """
    with open(path, "w") as fh:
        json.dump(model_payload(model, scaling_spec), fh, indent=1)
        fh.write("\n")


def load_model(path) -> DcModel:
    """Read a model written by save_model."""
    return load_bundle(path)[0]


def load_bundle(path):
    """Read (model, scaling spec or None) from a model file."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"invalid JSON in {path}: {exc}") from exc
    return model_from_payload(payload)
