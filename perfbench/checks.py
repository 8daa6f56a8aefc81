"""Correctness checks on the files a scenario run writes.

Every check reads only ``report.json`` and the CSV files of one output
directory, and compares them with values computed here, apart from the
program: closed-form chirped-Gaussian moments, squared Bessel weights from
``scipy.special.jv``, a per-line recomputation of the exact joint spectrum,
and properties the method must have (thermal bound, flux rising with gain,
byte-identical re-runs).  No check compares against a stored copy of earlier
output.  Each check returns a list of problems; an empty list means the
output passed.
"""

import copy
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import jv

TIGHT = 1e-12  # closed-form identities that hold to rounding
TRACE_MOMENT = 1e-9  # widths recomputed from the 17-digit trace text
FWHM = 2e-3  # linear interpolation of the half-maximum crossing
JOINT = 1e-9  # exact joint cells against the per-line recomputation, of the peak
ENVELOPE = 1e-10  # narrowband envelope against exp() of the same argument
COMB_PRUNE = 1e-12  # the program drops sideband lines with |J_n| below this
FWHM_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b != 0 else abs(a)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def read_report(out_dir: Path) -> dict:
    """Parse report.json as strict JSON: NaN, Infinity or overflow raise."""
    text = (Path(out_dir) / "report.json").read_text(encoding="utf-8")
    return json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float)


def _contains(resolved, given, path="scenario") -> list:
    """Every value of the input document appears unchanged in the report."""
    if isinstance(given, dict):
        if not isinstance(resolved, dict):
            return [f"{path}: expected an object in report.json"]
        problems = []
        for key, value in given.items():
            if key not in resolved:
                problems.append(f"{path}.{key}: missing from report.json")
            else:
                problems += _contains(resolved[key], value, f"{path}.{key}")
        return problems
    if isinstance(given, list):
        if not isinstance(resolved, list) or len(resolved) != len(given):
            return [f"{path}: list differs in report.json"]
        problems = []
        for i, (r, g) in enumerate(zip(resolved, given)):
            problems += _contains(r, g, f"{path}[{i}]")
        return problems
    if resolved != given:
        return [f"{path}: report.json has {resolved!r}, input had {given!r}"]
    return []


def set_param(doc: dict, dotted: str, value) -> dict:
    """Copy of ``doc`` with the dotted sweep path set to ``value``."""
    out = copy.deepcopy(doc)
    node = out
    parts = dotted.split(".")
    for part in parts[:-1]:
        node = node[int(part)] if isinstance(node, list) else node[part]
    if isinstance(node, list):
        node[int(parts[-1])] = value
    else:
        node[parts[-1]] = value
    return out


def _points(doc: dict, report: dict):
    """(point document, analyses, file prefix) for each executed point."""
    results = report["results"]
    sweep = doc.get("sweep")
    if sweep is None:
        return [(doc, results, "")]
    points = results["points"]
    digits = max(4, len(str(len(points))))
    out = []
    for i, (value, point) in enumerate(zip(sweep["values"], points)):
        if point["value"] != value:
            return []
        point_doc = set_param({k: v for k, v in doc.items() if k != "sweep"}, sweep["parameter"], value)
        out.append((point_doc, point, f"point_{i:0{digits}d}_"))
    return out


def _load_csv(path: Path, header: str) -> np.ndarray:
    with open(path, encoding="utf-8") as handle:
        first = handle.readline().rstrip("\n")
    if first != header:
        raise ValueError(f"{path.name}: header {first!r}, expected {header!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _coeff(element: dict, order: int) -> float:
    coeffs = element.get("phase_coeffs", [])
    return float(coeffs[order - 1]) if len(coeffs) >= order else 0.0


# -- temporal traces --------------------------------------------------------


def _trace_moments(data: np.ndarray):
    """Width, peak S/B and background read from a trace.csv table."""
    tau, g2, background = data[:, 0], data[:, 1], data[:, 2]
    bg = float(background[0])
    sub = g2 - bg
    weight = sub / np.sum(sub)
    centroid = float(np.sum(tau * weight))
    width = float(np.sqrt(np.sum((tau - centroid) ** 2 * weight)))
    return width, float((np.max(g2) - bg) / bg), background


def _check_tau_axis(data: np.ndarray, grid: dict, name: str) -> list:
    n, d_omega = grid["n_points"], grid["delta_omega"]
    if data.shape != (n, 3):
        return [f"{name}: {data.shape[0]} rows, expected {n}"]
    d_tau = 2.0 * math.pi / (n * d_omega)
    expected = (np.arange(n) - n // 2) * d_tau
    if np.max(np.abs(data[:, 0] - expected)) > TIGHT * n * d_tau:
        return [f"{name}: delay axis is not (j - n/2) * 2pi/(n delta_omega)"]
    return []


def _check_inter_analytic(point_doc: dict, point: dict, trace: np.ndarray | None, name: str) -> list:
    """Chirped-Gaussian closed forms for an analytic source with GDD only.

    |R|^2 has RMS bandwidth B, so the background-subtracted trace has
    width^2 = 1/(4B^2) + B^2 (Phi2_1 + Phi2_2)^2, peak S/B = 2 (1/2B) / width,
    FWHM = 2 sqrt(2 ln 2) width, and background N^2 = (B / sqrt(2 pi))^2.
    """
    e1, e2 = point_doc["elements"]
    for element in (e1, e2):
        coeffs = element.get("phase_coeffs", [])
        if any(c != 0.0 for i, c in enumerate(coeffs) if i != 1):
            raise ValueError(f"{name}: the analytic interbeam check needs GDD-only elements")
    b = float(point_doc["source"]["envelope_bandwidth"])
    gdd = _coeff(e1, 2) + _coeff(e2, 2)
    width2 = 1.0 / (4.0 * b * b) + b * b * gdd * gdd
    width = math.sqrt(width2)
    s_over_b = 2.0 * (1.0 / (2.0 * b)) / width
    background = (b / math.sqrt(2.0 * math.pi)) ** 2

    problems = []
    if "rms_width_ps" in point and _rel(point["rms_width_ps"] ** 2, width2) > TIGHT:
        problems.append(f"{name}: rms width^2 {point['rms_width_ps'] ** 2!r}, closed form {width2!r}")
    if "s_over_b" in point and _rel(point["s_over_b"], s_over_b) > TIGHT:
        problems.append(f"{name}: S/B {point['s_over_b']!r}, closed form {s_over_b!r}")
    if "fwhm_ps" in point and _rel(point["fwhm_ps"], FWHM_FACTOR * width) > FWHM:
        problems.append(f"{name}: FWHM {point['fwhm_ps']!r}, closed form {FWHM_FACTOR * width!r}")
    if _rel(point["background"], background) > TIGHT:
        problems.append(f"{name}: background {point['background']!r}, closed form {background!r}")
    if "width_ratio" in point and _rel(point["width_ratio"], width * 2.0 * b) > TIGHT:
        problems.append(f"{name}: width ratio {point['width_ratio']!r}, closed form {width * 2.0 * b!r}")
    if trace is not None:
        problems += _check_tau_axis(trace, point_doc["grid"], name)
        t_width, t_sb, t_bg = _trace_moments(trace)
        if _rel(t_width, width) > TRACE_MOMENT:
            problems.append(f"{name}: trace RMS width {t_width!r}, closed form {width!r}")
        if _rel(t_sb, s_over_b) > TIGHT:
            problems.append(f"{name}: trace S/B {t_sb!r}, closed form {s_over_b!r}")
        if np.max(np.abs(t_bg - background)) > TIGHT * background:
            problems.append(f"{name}: trace background column differs from (B/sqrt(2pi))^2")
    return problems


def _check_intra(point_doc: dict, point: dict, trace: np.ndarray | None, name: str) -> list:
    """Thermal bound S/B <= 1; S/B = 1 and width ratio 1 at identical elements."""
    problems = []
    if "s_over_b" in point and not point["s_over_b"] <= 1.0 + TIGHT:
        problems.append(f"{name}: intrabeam S/B {point['s_over_b']!r} exceeds 1")
    e1, e2 = point_doc["elements"]
    if [float(c) for c in e1["phase_coeffs"]] == [float(c) for c in e2["phase_coeffs"]]:
        if "s_over_b" in point and abs(point["s_over_b"] - 1.0) > TIGHT:
            problems.append(f"{name}: identical elements give S/B {point['s_over_b']!r}, not 1")
        if "width_ratio" in point and abs(point["width_ratio"] - 1.0) > TIGHT:
            problems.append(f"{name}: identical elements give width ratio {point['width_ratio']!r}")
    if trace is not None:
        problems += _check_tau_axis(trace, point_doc["grid"], name)
        _, t_sb, t_bg = _trace_moments(trace)
        if not t_sb <= 1.0 + TIGHT:
            problems.append(f"{name}: trace peak {t_sb!r} above twice the background")
        if np.any(t_bg != point["background"]):
            problems.append(f"{name}: trace background column differs from report.json")
    return problems


def _check_sweep_csv(doc: dict, report: dict, out_dir: Path) -> list:
    points = report["results"]["points"]
    if doc["configuration"].endswith("_time"):
        header = "param,rms_width_ps,fwhm_ps,s_over_b"
        keys = ("value", "rms_width_ps", "fwhm_ps", "s_over_b")
    else:
        header = "param,comb_leakage"
        keys = ("value", "comb_leakage")
    table = _load_csv(out_dir / "sweep.csv", header)
    expected = np.array([[p[k] for k in keys] for p in points], dtype=float)
    if table.shape != expected.shape or np.any(table != expected):
        return ["sweep.csv rows differ from the report.json points"]
    return []


def _check_gain_sweep(doc: dict, report: dict) -> list:
    """Per-beam flux N = sqrt(background) rises strictly with the gain."""
    pairs = sorted((p["value"], p["background"]) for p in report["results"]["points"])
    flux = [math.sqrt(bg) for _, bg in pairs]
    if any(b <= a for a, b in zip(flux, flux[1:])):
        return ["flux does not rise strictly with source.gain"]
    return []


# -- joint spectra ----------------------------------------------------------


def _bessel_weights(index: float, k_max: int = 80):
    orders = np.arange(-k_max, k_max + 1)
    return orders, jv(orders, index)


def _analytic_fields(doc: dict):
    source = doc["source"]
    if source["mode"] != "analytic":
        raise ValueError("joint-spectrum checks need an analytic source")
    n, d_omega = doc["grid"]["n_points"], doc["grid"]["delta_omega"]
    omegas = (np.arange(n) - n // 2) * d_omega
    b = float(source["envelope_bandwidth"])
    r = np.exp(-omegas**2 / (4.0 * b * b))
    return omegas, r, r * r


def _check_comb(doc: dict, point: dict, path: Path | None, name: str) -> list:
    """Narrowband comb: weights J_n(theta1 +/- theta2)^2, leakage 1 - J_0^2."""
    (m1, m2) = doc["modulators"]
    inter = doc["configuration"] == "inter_freq"
    x = m1["index"] + m2["index"] if inter else m1["index"] - m2["index"]
    j0_sq = float(jv(0, x)) ** 2
    problems = []
    if point["combined_index"] != x:
        problems.append(f"{name}: combined index {point['combined_index']!r}, expected {x!r}")
    if abs(point["n0_coefficient"] - j0_sq) > TIGHT:
        problems.append(f"{name}: n = 0 coefficient {point['n0_coefficient']!r}, J_0^2 = {j0_sq!r}")
    if "comb_leakage" in point and abs(point["comb_leakage"] - (1.0 - j0_sq)) > TIGHT:
        problems.append(f"{name}: leakage {point['comb_leakage']!r}, 1 - J_0^2 = {1.0 - j0_sq!r}")
    if path is None:
        return problems

    data = _load_csv(path, "n,coefficient,ridge,envelope_axis_radps,envelope_value")
    omegas, _, s = _analytic_fields(doc)
    n_grid = omegas.size
    orders = data[::n_grid, 0].astype(int)
    if data.shape[0] != orders.size * n_grid or np.any(np.repeat(orders, n_grid) != data[:, 0]):
        return problems + [f"{name}: comb.csv is not one block of {n_grid} rows per line"]
    all_orders, weights = _bessel_weights(x)
    strong = set(all_orders[np.abs(weights) >= 10 * COMB_PRUNE].tolist())
    weak = set(all_orders[np.abs(weights) < 0.1 * COMB_PRUNE].tolist())
    present = set(orders.tolist())
    if not strong <= present or present & weak:
        problems.append(f"{name}: comb lines {sorted(present)} differ from |J_n| >= {COMB_PRUNE}")
    coeff = jv(data[:, 0], x) ** 2
    if np.max(np.abs(data[:, 1] - coeff)) > TIGHT:
        problems.append(f"{name}: comb coefficients differ from J_n(theta)^2")
    if np.any(data[:, 2] != data[:, 0] * m1["mod_freq"]):
        problems.append(f"{name}: ridge column is not n * mod_freq")
    envelope = np.tile(s if inter else s * s, orders.size)  # |R|^2 or S^2
    if np.any(data[:, 3] != np.tile(2.0 * omegas, orders.size)):
        problems.append(f"{name}: envelope axis is not 2 * Omega")
    if np.max(np.abs(data[:, 4] - envelope)) > ENVELOPE * np.max(envelope):
        problems.append(f"{name}: envelope differs from the analytic source spectrum")
    return problems


def _joint_reference(doc: dict):
    """Per-line recomputation of the exact joint spectrum.

    Interbeam line L (Omega1 + Omega2 = L mod_freq) holds
    sum_n1 J_n1(theta1) J_{L-n1}(theta2) R(Omega1 - n1 mod_freq); intrabeam
    line L (Omega1 - Omega2 = L mod_freq) holds
    sum_n1 J_n1(theta1) J_{n1+L}(theta2) S(Omega1 + n1 mod_freq).  Cells are
    |amplitude|^2 / delta_omega^2; the background is the outer product of the
    sideband-redistributed flux densities.  Sidebands weaker than 1e-20 are
    dropped: they move no cell by a measurable share of the peak.  Returns
    the keys i*n + j and structure values of every on-grid cell of every
    line, and the two flux densities.
    """
    omegas, r, s = _analytic_fields(doc)
    n, d_omega = omegas.size, doc["grid"]["delta_omega"]
    (m1, m2) = doc["modulators"]
    m = int(round(m1["mod_freq"] / d_omega))
    inter = doc["configuration"] == "inter_freq"
    field = r if inter else s
    orders, w1 = _bessel_weights(m1["index"])
    _, w2 = _bessel_weights(m2["index"])
    side1 = {int(k): w for k, w in zip(orders, w1) if abs(w) >= 1e-20}
    side2 = {int(k): w for k, w in zip(orders, w2) if abs(w) >= 1e-20}
    idx = np.arange(n)

    def shifted(values, shift):
        out = np.zeros(n, dtype=values.dtype)
        lo, hi = max(0, -shift), min(n, n - shift)
        if hi > lo:
            out[lo:hi] = values[lo + shift : hi + shift]
        return out

    reach = max(map(abs, side1)) + max(map(abs, side2))
    keys, structure = [], []
    for line in range(-reach, reach + 1):
        amp = np.zeros(n, dtype=field.dtype)
        for n1, weight1 in side1.items():
            n2 = line - n1 if inter else n1 + line
            if n2 in side2:
                amp += (weight1 * side2[n2]) * shifted(field, -n1 * m if inter else n1 * m)
        j = n + line * m - idx if inter else idx - line * m
        keep = (j >= 0) & (j < n)
        keys.append(idx[keep] * n + j[keep])
        structure.append(np.abs(amp[keep]) ** 2 / d_omega**2)

    density1 = sum(w * w * shifted(s, k * m) for k, w in side1.items()) / (2.0 * np.pi)
    density2 = sum(w * w * shifted(s, k * m) for k, w in side2.items()) / (2.0 * np.pi)
    return np.concatenate(keys), np.concatenate(structure), density1, density2


def _check_joint(doc: dict, point: dict, path: Path, name: str) -> list:
    n, d_omega = doc["grid"]["n_points"], doc["grid"]["delta_omega"]
    data = _load_csv(path, "omega1_radps,omega2_radps,structure,background")
    i = np.rint(data[:, 0] / d_omega).astype(np.int64) + n // 2
    j = np.rint(data[:, 1] / d_omega).astype(np.int64) + n // 2
    omegas = (np.arange(n) - n // 2) * d_omega
    if np.any(i < 0) or np.any(i >= n) or np.any(j < 0) or np.any(j >= n):
        return [f"{name}: joint.csv frequencies fall off the grid"]
    if np.any(data[:, 0] != omegas[i]) or np.any(data[:, 1] != omegas[j]):
        return [f"{name}: joint.csv frequencies are not grid samples"]

    ref_keys, ref_structure, density1, density2 = _joint_reference(doc)
    order = np.argsort(ref_keys)
    ref_keys, ref_structure = ref_keys[order], ref_structure[order]
    keys = i * n + j
    pos = np.searchsorted(ref_keys, keys)
    pos = np.minimum(pos, ref_keys.size - 1)
    problems = []
    if np.any(ref_keys[pos] != keys):
        return [f"{name}: joint.csv has cells off every comb line"]
    if np.unique(keys).size != keys.size:
        problems.append(f"{name}: joint.csv repeats cells")
    peak = float(np.max(ref_structure))
    if np.max(np.abs(data[:, 2] - ref_structure[pos])) > JOINT * peak:
        problems.append(f"{name}: joint.csv structure differs from the per-line recomputation")
    missing = np.ones(ref_keys.size, dtype=bool)
    missing[pos] = False
    if np.any(ref_structure[missing] > JOINT * peak):
        problems.append(f"{name}: joint.csv omits nonzero cells")
    background = density1[i] * density2[j]
    if np.max(np.abs(data[:, 3] - background)) > JOINT * np.max(background):
        problems.append(f"{name}: joint.csv background differs from the modulated flux product")
    integral = float(np.sum(ref_structure)) * d_omega**2
    if _rel(point["structure_integral"], integral) > JOINT:
        problems.append(f"{name}: structure integral {point['structure_integral']!r}, recomputed {integral!r}")
    return problems


# -- entry points -----------------------------------------------------------


def check_run(doc: dict, out_dir) -> list:
    """Check one run's output directory against its input scenario document."""
    out_dir = Path(out_dir)
    try:
        report = read_report(out_dir)
    except (OSError, ValueError) as exc:
        return [f"report.json unreadable or not strict JSON: {exc}"]
    problems = _contains(report.get("scenario"), doc)
    for name in report.get("files", []):
        if not (out_dir / name).is_file():
            problems.append(f"listed file {name} is missing")
    if problems:
        return problems
    points = _points(doc, report)
    if not points:
        return ["report.json sweep points do not follow the sweep values"]

    config = doc["configuration"]
    outputs = doc.get("outputs", {})
    try:
        if doc.get("sweep") is not None:
            problems += _check_sweep_csv(doc, report, out_dir)
            if doc["sweep"]["parameter"] == "source.gain":
                problems += _check_gain_sweep(doc, report)
        for point_doc, point, prefix in points:
            label = f"{prefix or 'run'}"
            if config.endswith("_time"):
                trace = None
                if outputs.get("write_trace", True):
                    trace = _load_csv(out_dir / f"{prefix}trace.csv", "tau_ps,g2,background")
                if config == "intra_time":
                    problems += _check_intra(point_doc, point, trace, label)
                elif point_doc["source"]["mode"] == "analytic":
                    problems += _check_inter_analytic(point_doc, point, trace, label)
            elif point_doc.get("exact_grid", False):
                problems += _check_joint(point_doc, point, out_dir / f"{prefix}joint.csv", label)
            else:
                comb = out_dir / f"{prefix}comb.csv" if outputs.get("write_comb", True) else None
                problems += _check_comb(point_doc, point, comb, label)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"output unreadable: {type(exc).__name__}: {exc}")
    return problems


def check_rerun(first_dir, second_dir) -> list:
    """A run fed its own report.json writes the same files, byte for byte."""
    first_dir, second_dir = Path(first_dir), Path(second_dir)
    try:
        names = read_report(first_dir)["files"]
        again = read_report(second_dir)["files"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"report.json unreadable: {exc}"]
    if names != again:
        return ["re-run lists different files"]
    return [
        f"re-run {name} differs"
        for name in names
        if (first_dir / name).read_bytes() != (second_dir / name).read_bytes()
    ]
