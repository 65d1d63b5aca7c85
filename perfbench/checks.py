"""Correctness checks that do not trust the program under test.

Every model is evaluated again here with plain numpy, starting from its raw
fields (centers, center indices, biases, weights, max-min-affine blocks,
offset and the input/output maps), either read off a ``DcModel`` or parsed
with ``json`` from a model file.  Each ``check_*`` function returns ``None``
when the check passes and a one-line message when it fails.
"""

import numpy as np

_NORM_ORD = {"l1": 1, "l2": 2, "linf": np.inf}
_CHUNK = 512   # rows per block, so the checks add little to peak RSS
RTOL = 1e-9          # own evaluation against the program's predictions
CENTER_TOL = 1e-9    # mean prediction on the training X against mean(y)
CHAIN_TOL = 1e-8     # slack of the chain checks, as in the acceptance gate
CONVEX_TOL = 1e-9    # midpoint-convexity slack, relative to the values


def _component(biases, weights, center_idx):
    return (np.asarray(biases, float), np.asarray(weights, float),
            np.asarray(center_idx, np.int64))


def fields_from_model(model):
    """Raw fields of an in-memory ``dcreg.model.DcModel``."""
    d = model.component.centers.shape[1]
    return {
        "variant": model.variant,
        "kind": model.component.kind,
        "centers": np.asarray(model.component.centers, float),
        "components": [_component(c.biases, c.weights, c.center_idx)
                       for c in model.components()],
        "mma": None if model.mma is None else (np.asarray(model.mma.biases, float),
                                               np.asarray(model.mma.slopes, float)),
        "offset": float(model.offset),
        "x_shift": np.zeros(d) if model.x_shift is None else np.asarray(model.x_shift, float),
        "x_scale": np.ones(d) if model.x_scale is None else np.asarray(model.x_scale, float),
        "y_shift": float(model.y_shift),
        "y_scale": float(model.y_scale),
        "scaling": None,
    }


def fields_from_payload(payload):
    """Raw fields of a model file's JSON object (as parsed by ``json``)."""
    centers = np.asarray(payload["centers"], float)
    d = centers.shape[1]

    def pieces(key):
        rows = payload[key]
        return _component([p["b"] for p in rows], [p["w"] for p in rows],
                          [p.get("c", i) for i, p in enumerate(rows)])

    comps = [pieces("pieces")]
    if "secondary_pieces" in payload:
        comps.append(pieces("secondary_pieces"))
    std = payload.get("standardization",
                      {"x_shift": np.zeros(d), "x_scale": np.ones(d),
                       "y_shift": 0.0, "y_scale": 1.0})
    spec = payload.get("scaling_spec")
    mma = payload.get("mma")
    return {
        "variant": payload["variant"],
        "kind": payload["kind"],
        "centers": centers,
        "components": comps,
        "mma": None if mma is None else (np.asarray(mma["biases"], float),
                                         np.asarray(mma["slopes"], float)),
        "offset": float(payload["offset"]),
        "x_shift": np.asarray(std["x_shift"], float),
        "x_scale": np.asarray(std["x_scale"], float),
        "y_shift": float(std["y_shift"]),
        "y_scale": float(std["y_scale"]),
        "scaling": None if spec is None else (
            np.asarray(spec["shift"], float), np.asarray(spec["scale"], float),
            float(spec["y_mean"]), float(spec["y_std"])),
    }


def _max_of_pieces(kind, centers, comp, Z):
    """max_k b_k + u_k . (z - c_k) + v_k ||z - c_k|| for the norm kinds."""
    biases, weights, idx = comp
    C = centers[idx]
    diff = Z[:, None, :] - C[None, :, :]
    norms = np.linalg.norm(diff, ord=_NORM_ORD[kind], axis=2)
    d = Z.shape[1]
    vals = biases[None, :] + np.sum(diff * weights[None, :, :d], axis=2) \
        + norms * weights[None, :, d]
    return vals.max(axis=1)


def evaluate(fields, X):
    """Predictions of a model given by its raw fields, on raw inputs X."""
    if fields["kind"] not in _NORM_ORD:
        raise ValueError(f"feature kind {fields['kind']!r} is not used by the workloads")
    X = np.atleast_2d(np.asarray(X, float))
    if fields["scaling"] is not None:
        shift, scale, _, _ = fields["scaling"]
        X = (X - shift) / scale
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], _CHUNK):
        Z = (X[lo:lo + _CHUNK] - fields["x_shift"]) / fields["x_scale"]
        variant = fields["variant"]
        if variant == "max_min_affine":
            B, S = fields["mma"]
            inner = B[None, :, :] + np.einsum("kld,nd->nkl", S, Z)
            v = inner.min(axis=2).max(axis=1)
        elif variant in ("single", "convex_max_affine"):
            v = _max_of_pieces(fields["kind"], fields["centers"], fields["components"][0], Z)
        elif variant == "symmetric":
            first, second = fields["components"]
            v = (_max_of_pieces(fields["kind"], fields["centers"], first, Z)
                 - _max_of_pieces(fields["kind"], fields["centers"], second, Z))
        else:
            raise ValueError(f"variant {variant!r} is not used by the workloads")
        out[lo:lo + _CHUNK] = fields["y_shift"] + fields["y_scale"] * (fields["offset"] + v)
    if fields["scaling"] is not None:
        _, _, y_mean, y_std = fields["scaling"]
        out = out * y_std + y_mean
    return out


def check_matches(reference, predictions, what="predictions"):
    """The program's predictions equal the own evaluation to RTOL."""
    reference = np.asarray(reference, float)
    predictions = np.asarray(predictions, float)
    if reference.shape != predictions.shape:
        return f"{what}: shape {predictions.shape} != reference {reference.shape}"
    err = np.abs(predictions - reference) / np.maximum(1.0, np.abs(reference))
    worst = float(np.max(err)) if err.size else 0.0
    if not worst <= RTOL:
        return f"{what}: relative error {worst:.3g} against the own evaluation > {RTOL:g}"
    return None


def check_identical(a, b, what):
    """Bit-for-bit equality (save/load round trip)."""
    if not np.array_equal(np.asarray(a, float), np.asarray(b, float)):
        return f"{what}: not bit-identical"
    return None


def affine_mse(X, clean):
    """MSE of the least-squares affine fit to the noiseless values."""
    A = np.hstack([np.atleast_2d(X), np.ones((len(clean), 1))])
    coef = np.linalg.lstsq(A, clean, rcond=None)[0]
    return float(np.mean((A @ coef - clean) ** 2))


def check_beats_affine(X, clean, predictions):
    """Test MSE against the noiseless target is below the best affine fit's."""
    mse = float(np.mean((np.asarray(predictions, float) - clean) ** 2))
    base = affine_mse(X, clean)
    if not mse < base:
        return f"test_mse {mse:.6g} is not below the affine fit's {base:.6g}"
    return None


def check_centering(train_predictions, y):
    """Mean prediction on the training X equals mean(y)."""
    ybar = float(np.mean(y))
    gap = abs(float(np.mean(train_predictions)) - ybar)
    if not gap <= CENTER_TOL * (1.0 + abs(ybar)):
        return f"centering: mean prediction is {gap:.3g} away from mean(y)"
    return None


def check_chains(risk_reg_chain, lip_chain, theta3):
    """risk + reg never rises; pruning never raises the slope statistic.

    The refinement may raise the slope statistic, up to (1 + theta3) times
    its initial value, so that link is checked against that cap.
    """
    rr0, rr1, rr2 = (float(v) for v in risk_reg_chain)
    lip0, lip1, lip2 = (float(v) for v in lip_chain)
    if not (rr1 <= rr0 + CHAIN_TOL and rr2 <= rr1 + CHAIN_TOL):
        return f"risk_reg_chain rises: {rr0!r}, {rr1!r}, {rr2!r}"
    if not lip2 <= lip1 + CHAIN_TOL:
        return f"lip_chain rises at finalize: {lip1!r} -> {lip2!r}"
    if not lip1 <= (1.0 + theta3) * lip0 + CHAIN_TOL:
        return f"lip_chain: refined {lip1!r} exceeds (1 + theta3) * initial {lip0!r}"
    return None


def check_midpoint_convex(f_a, f_b, f_mid):
    """f((a+b)/2) <= (f(a)+f(b))/2 on every pair."""
    f_a, f_b, f_mid = (np.asarray(v, float) for v in (f_a, f_b, f_mid))
    chord = 0.5 * (f_a + f_b)
    excess = f_mid - chord - CONVEX_TOL * (1.0 + np.abs(chord))
    worst = float(np.max(excess)) if excess.size else 0.0
    if worst > 0.0:
        return f"midpoint convexity violated by {worst:.3g}"
    return None
