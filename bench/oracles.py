"""Reference computations that check cohpert's outputs without importing it.

Everything here is plain numpy built from the channel definitions, so an
error in cohpert's channel algebra, entropy, spectral or derivative code
shows up as a disagreement.  The numpy functions are bound at import time,
before the traced run replaces ``numpy.linalg`` attributes, so oracle work
never shows up in the per-layer counts.

Every check returns a list of problems; an empty list means the op passed.
None of these oracles use the stated values of acceptance criteria 01, 02,
04 or 06, which the README documents as not reproduced.
"""

from __future__ import annotations

import math

import numpy as np

_eigh = np.linalg.eigh
_eigvalsh = np.linalg.eigvalsh

KERNEL_EIG = 1e-10  # eigenvalues at or below this count as kernel, as in cohpert's default
_SQRT_HALF = math.sqrt(0.5)

PAULIS = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)


# ---------------------------------------------------------------------------
# channels in Kraus form, stacked as arrays of shape (n_kraus, d_out, d_in)


def depolarizing_weights(p: float) -> np.ndarray:
    return np.array([1.0 - 0.75 * p, 0.25 * p, 0.25 * p, 0.25 * p])


def depolarizing_kraus(p: float) -> np.ndarray:
    return np.sqrt(depolarizing_weights(p))[:, None, None] * PAULIS


def amplitude_damping_kraus(gamma: float) -> np.ndarray:
    return np.array(
        [[[1, 0], [0, math.sqrt(1 - gamma)]], [[0, math.sqrt(gamma)], [0, 0]]], dtype=complex
    )


def platypus_kraus(s: float) -> np.ndarray:
    """Environment components of |0> -> sqrt(s)|00> + sqrt(1-s)|11>,
    |1> -> |20>, |2> -> |21> (output (x) environment)."""
    k = np.zeros((2, 3, 3), dtype=complex)
    k[0, 0, 0] = math.sqrt(s)
    k[0, 2, 1] = 1.0
    k[1, 1, 0] = math.sqrt(1 - s)
    k[1, 2, 2] = 1.0
    return k


def dephrasure_kraus(p: float, q: float) -> np.ndarray:
    k = np.zeros((4, 3, 2), dtype=complex)
    k[0, 0, 0] = k[0, 1, 1] = math.sqrt((1 - q) * (1 - p))
    k[1, 0, 0] = math.sqrt((1 - q) * p)
    k[1, 1, 1] = -math.sqrt((1 - q) * p)
    k[2, 2, 0] = k[3, 2, 1] = math.sqrt(q)
    return k


def kron_kraus(*sets: np.ndarray) -> np.ndarray:
    out = sets[0]
    for other in sets[1:]:
        out = np.array([np.kron(a, b) for a in out for b in other])
    return out


def channel_out(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_k K_k rho K_k^dag."""
    return np.einsum("kij,kmj->im", kraus @ rho, kraus.conj())


def channel_env(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Environment output [tr(K_k rho K_m^dag)]_{km} of the Stinespring dilation."""
    n = len(kraus)
    return (kraus @ rho).reshape(n, -1) @ kraus.conj().reshape(n, -1).T


# ---------------------------------------------------------------------------
# entropies and spectral traces, natural logarithms unless named otherwise


def entropy_nats(m: np.ndarray) -> float:
    w = _eigvalsh((m + m.conj().T) / 2.0)
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum())


def coherent_info_nats(kraus: np.ndarray, rho: np.ndarray) -> float:
    return entropy_nats(channel_out(kraus, rho)) - entropy_nats(channel_env(kraus, rho))


def coherent_info_bits(kraus: np.ndarray, rho: np.ndarray) -> float:
    return coherent_info_nats(kraus, rho) / math.log(2.0)


def shannon_bits(probs) -> float:
    return -sum(p * math.log2(p) for p in probs if p > 0.0)


def hashing_ic_bits(p: float) -> float:
    """I_c of the maximally mixed qubit through depolarizing(p): 1 - H(weights)."""
    return 1.0 - shannon_bits(depolarizing_weights(p))


def hashing_root(lo: float = 0.0, hi: float = 0.5) -> float:
    """Zero of 1 - H(Pauli weights) in p, by plain bisection."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hashing_ic_bits(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def w_divided_difference(state: np.ndarray, b: np.ndarray) -> float:
    """tr(B D ln(state)[B]) = sum_ij |B_ij|^2 (ln l_i - ln l_j)/(l_i - l_j), 1/l_i on ties."""
    lam, vec = _eigh(state)
    bt = vec.conj().T @ b @ vec
    li, lj = lam[:, None], lam[None, :]
    diff = li - lj
    tie = np.abs(diff) <= 1e-9 * max(1.0, float(np.abs(lam).max()))
    with np.errstate(divide="ignore", invalid="ignore"):
        dd = np.where(tie, 2.0 / (li + lj), (np.log(li) - np.log(lj)) / np.where(tie, 1.0, diff))
    return float((np.abs(bt) ** 2 * dd).sum())


def log_trace(state: np.ndarray, b: np.ndarray) -> float:
    """tr(B ln state) for a full-rank state."""
    lam, vec = _eigh(state)
    return float((np.log(lam) * np.einsum("ji,jk,ki->i", vec.conj(), b, vec).real).sum())


def kernel_split(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(kernel projector, sum over the support of P_j / lambda_j)."""
    lam, vec = _eigh(state)
    ker = lam <= KERNEL_EIG
    p0 = vec[:, ker] @ vec[:, ker].conj().T
    c0 = (vec[:, ~ker] / lam[~ker]) @ vec[:, ~ker].conj().T
    return p0, c0


def kernel_trace(state: np.ndarray, b1: np.ndarray) -> float:
    p0, _ = kernel_split(state)
    return float(np.trace(p0 @ b1).real)


def w0_kernel(state: np.ndarray, b1: np.ndarray, b2: np.ndarray) -> float:
    """tr(P0 B2) - tr(P0 B1 C0 B1 P0); 0 for a full-rank state."""
    p0, c0 = kernel_split(state)
    return float(np.trace(p0 @ b2 - p0 @ b1 @ c0 @ b1 @ p0).real)


def golden_max(fn, lo: float = 0.0, hi: float = 1.0, tol: float = 1e-9) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return max(((x, fn(x)) for x in (a, b)), key=lambda t: t[1])


# ---------------------------------------------------------------------------
# comparisons


def expect(problems: list, label: str, got, want: float, abs_tol: float, rel_tol: float = 1e-9) -> None:
    """Record a problem unless ``got`` is within ``abs_tol + rel_tol * |want|`` of ``want``."""
    if got is None or not math.isfinite(got) or abs(got - want) > abs_tol + rel_tol * abs(want):
        problems.append(f"{label}: got {got!r}, oracle {want!r}")


def check_witness(problems: list, label: str, kraus: np.ndarray, state_at, eps, f_bits, sign: int) -> None:
    """A reported witness f(eps) in bits must have the claimed sign when recomputed."""
    if eps is None and f_bits is None:
        return
    if eps is None or f_bits is None:
        problems.append(f"{label}: half-reported witness eps={eps!r} f={f_bits!r}")
        return
    f = coherent_info_bits(kraus, state_at(eps)) - coherent_info_bits(kraus, state_at(0.0))
    if not (sign * f > 0.0 and sign * f_bits > 0.0):
        problems.append(f"{label}: witness sign {sign:+d} not confirmed (reported {f_bits!r}, oracle {f!r})")
    expect(problems, f"{label} value", f_bits, f, 1e-9, 1e-6)


def rows_of(summary: dict) -> list[dict]:
    return summary["report"]["rows"]


def check_csv(problems: list, summary: dict) -> None:
    path = summary.get("csv")
    if path is None:
        problems.append("no CSV written")
        return
    with open(path, encoding="utf-8") as fh:
        lines = sum(1 for _ in fh)
    if lines != len(rows_of(summary)) + 1:
        problems.append(f"CSV has {lines} lines for {len(rows_of(summary))} rows")


# ---------------------------------------------------------------------------
# per-scenario oracles


def two_qubit_tilt(eps: float) -> np.ndarray:
    """(1 - eps) 1/4 + eps |+0><+0|."""
    psi = np.array([_SQRT_HALF, 0, _SQRT_HALF, 0], dtype=complex)
    return (1 - eps) * np.eye(4) / 4 + eps * np.outer(psi, psi.conj())


def check_depolarizing_n2(summary: dict) -> list[str]:
    problems: list[str] = []
    check_csv(problems, summary)
    base = two_qubit_tilt(0.0)
    a1 = two_qubit_tilt(1.0) - base
    for row in rows_of(summary):
        p = row["p"]
        kraus = kron_kraus(depolarizing_kraus(p), depolarizing_kraus(p))
        w_out = w_divided_difference(channel_out(kraus, base), channel_out(kraus, a1))
        w_env = w_divided_difference(channel_env(kraus, base), channel_env(kraus, a1))
        expect(problems, f"p={p} trace_w_out", row["trace_w_out"], w_out, 1e-9, 1e-8)
        expect(problems, f"p={p} trace_w_env", row["trace_w_env"], w_env, 1e-9, 1e-8)
        expect(problems, f"p={p} ic_single", row["ic_single"], hashing_ic_bits(p), 1e-10)
        check_witness(problems, f"p={p}", kraus, two_qubit_tilt, row["witness_eps"], row["witness_f"], +1)
    return problems


def platypus_ad_parts(w: float, a: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Base ((1-w)|0><0| + w|2><2|) (x) |0><0| and the |1,1>/|2,0> exchange directions."""
    base = np.zeros((6, 6), dtype=complex)
    base[0, 0], base[4, 4] = 1 - w, w
    a1 = np.zeros((6, 6), dtype=complex)
    a1[3, 4] = a1[4, 3] = w * a
    a2 = np.zeros((6, 6), dtype=complex)
    a2[3, 3], a2[4, 4] = w, -w
    return base, a1, a2


def check_platypus_ad(summary: dict, gamma: float, a: float) -> list[str]:
    problems: list[str] = []
    check_csv(problems, summary)
    damp = amplitude_damping_kraus(gamma)
    for row in rows_of(summary):
        s, w = row["s"], row["w_star"]
        plat = platypus_kraus(s)

        def line_ic(u: float) -> float:
            return coherent_info_bits(plat, np.diag([1 - u, 0, u]).astype(complex))

        if 1e-4 < w < 1 - 1e-4 and max(line_ic(w - 1e-4), line_ic(w + 1e-4)) > line_ic(w) + 1e-12:
            problems.append(f"s={s}: w_star={w!r} is not a local maximum of I_c on the line")
        kraus = kron_kraus(plat, damp)
        base, a1, a2 = platypus_ad_parts(w, a)
        out = w0_kernel(channel_out(kraus, base), channel_out(kraus, a1), channel_out(kraus, a2))
        env = w0_kernel(channel_env(kraus, base), channel_env(kraus, a1), channel_env(kraus, a2))
        expect(problems, f"s={s} second_order_out", row["second_order_out"], out, 1e-9, 1e-7)
        expect(problems, f"s={s} second_order_env", row["second_order_env"], env, 1e-9, 1e-7)
        check_witness(
            problems, f"s={s}", kraus, lambda e: base + e * a1 + e * e * a2,
            row["witness_eps"], row["witness_f"], +1,
        )
    return problems


def check_three_copy(report, p: float, psi: np.ndarray) -> list[str]:
    """C3 traces of the three-copy depolarizing tilt, and any witness."""
    problems: list[str] = []
    kraus = kron_kraus(*(depolarizing_kraus(p),) * 3)
    target = np.outer(psi, psi.conj())

    def state_at(eps: float) -> np.ndarray:
        return (1 - eps) * np.eye(8) / 8 + eps * target

    base = state_at(0.0)
    a1 = target - base
    crit = report.criterion_report
    if crit.criterion not in ("C3", "THM2_FULL2"):
        problems.append(f"expected the full-rank criterion, got {crit.criterion}")
    else:
        w_out = w_divided_difference(channel_out(kraus, base), channel_out(kraus, a1))
        w_env = w_divided_difference(channel_env(kraus, base), channel_env(kraus, a1))
        expect(problems, "C3 env side", crit.lhs, w_env, 1e-9, 1e-8)
        expect(problems, "C3 out side", crit.rhs, w_out, 1e-9, 1e-8)
    witness = report.numeric_confirmation
    eps, f = (None, None) if witness is None else witness
    check_witness(problems, "three-copy", kraus, state_at, eps, f, +1)
    return problems


def qubit_flip(eps: float) -> np.ndarray:
    return np.diag([1 - eps, eps]).astype(complex)


def check_gap_depolarizing(summary: dict) -> list[str]:
    problems: list[str] = []
    check_csv(problems, summary)
    for row in rows_of(summary):
        p = row["p"]
        expect(problems, f"p={p} kernel_trace_env", row["kernel_trace_env"],
               p * (3 - 2 * p) / (2 - p), 1e-12)
        expect(problems, f"p={p} kernel_trace_out", row["kernel_trace_out"], 0.0, 1e-12)
        # sigma - r rho(eps) >= 0 for sigma = 1/2 and every eps >= 0 gives r <= 1/(2(1-eps))
        r = row["admissible_r"]
        if r is None or not 0.5 - 1e-5 <= r <= 0.5 + 1e-6:
            problems.append(f"p={p}: admissible_r {r!r} outside [0.5 - 1e-5, 0.5 + 1e-6]")
        check_witness(problems, f"p={p}", depolarizing_kraus(p), qubit_flip,
                      row["witness_eps"], row["witness_f"], -1)
    return problems


def check_hashing_curve(summary: dict) -> list[str]:
    problems: list[str] = []
    check_csv(problems, summary)
    rows = rows_of(summary)
    for row in rows:
        expect(problems, f"p={row['p']} ic_bits", row["ic_bits"], hashing_ic_bits(row["p"]), 1e-10)
    root = hashing_root()
    crossing = summary["report"]["report"]["zero_crossing"]
    if rows[0]["p"] < root < rows[-1]["p"]:
        expect(problems, "zero_crossing", crossing, root, 1.1e-4, 0.0)
    elif crossing is not None:
        problems.append(f"zero_crossing {crossing!r} reported outside the grid")
    return problems


def _basis_line(basis: str, u: float) -> np.ndarray:
    if basis == "z":
        return np.diag([1 - u, u]).astype(complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    return (1 - u) * plus + u * minus


def check_dephrasure_gap(summary: dict, p: float) -> list[str]:
    problems: list[str] = []
    check_csv(problems, summary)
    detections = iter(summary["report"]["report"]["detections"])
    for row in rows_of(summary):
        q, u = row["q"], row["u_primary"]
        kraus = dephrasure_kraus(p, q)
        ic = coherent_info_bits(kraus, np.diag([1 - u, u]).astype(complex))
        expect(problems, f"q={q} ic_primary", row["ic_primary"], max(ic, 0.0), 1e-10)
        if row["conclusion"] != "gap_detected":
            continue
        basis = next(detections)["notes"][0].rsplit(" ", 1)[-1]
        env_kraus = np.transpose(kraus, (1, 0, 2))  # complement: [L_m]_{k,:} = row m of K_k
        _, best = golden_max(lambda x: coherent_info_bits(env_kraus, _basis_line(basis, x)))
        if not best > 0.0:
            problems.append(f"q={q}: complement line maximum {best!r} is not positive")
        expect(problems, f"q={q} ic_complement_line", row["ic_complement_line"], best, 1e-9, 1e-6)
    return problems


# ---------------------------------------------------------------------------
# custom criterion checks


def _second_derivative_fd(kraus: np.ndarray, base, a1, a2, h: float = 4e-3) -> float:
    """f''(0) in nats by central differences with one Richardson step."""
    def f(eps: float) -> float:
        return coherent_info_nats(kraus, base + eps * a1 + eps * eps * a2)

    f0 = f(0.0)

    def central(step: float) -> float:
        return (f(step) - 2.0 * f0 + f(-step)) / (step * step)

    return (4.0 * central(h / 2) - central(h)) / 3.0


def check_custom(report, kraus, base, a1, a2, criterion: str, sense: str) -> list[str]:
    """Check one run_custom report against the raw Kraus operators and family."""
    problems: list[str] = []
    flip = 1.0 if sense == "positive_f" else -1.0
    out0, env0 = channel_out(kraus, base), channel_env(kraus, base)
    out1, env1 = channel_out(kraus, a1), channel_env(kraus, a1)
    out2, env2 = channel_out(kraus, a2), channel_env(kraus, a2)
    if criterion == "C3":
        fd = _second_derivative_fd(kraus, base, a1, a2)
        expect(problems, "f''(0) (sense-adjusted margin)", flip * report.margin, fd, 1e-7, 1e-5)
        checks = dict(report.first_order_checks)
        expect(problems, "out log trace", checks.get("out[log_a1]"), log_trace(out0, out1), 1e-9, 1e-8)
        expect(problems, "env log trace", checks.get("env[log_a1]"), log_trace(env0, env1), 1e-9, 1e-8)
    elif criterion == "C1":
        out_side, env_side = kernel_trace(out0, out1), kernel_trace(env0, env1)
        lhs, rhs = (out_side, env_side) if flip > 0 else (env_side, out_side)
        expect(problems, "C1 lhs", report.lhs, lhs, 1e-9, 1e-8)
        expect(problems, "C1 rhs", report.rhs, rhs, 1e-9, 1e-8)
    else:
        out_side, env_side = w0_kernel(out0, out1, out2), w0_kernel(env0, env1, env2)
        lhs, rhs = (out_side, env_side) if flip > 0 else (env_side, out_side)
        expect(problems, "C2 lhs", report.lhs, lhs, 1e-9, 1e-7)
        expect(problems, "C2 rhs", report.rhs, rhs, 1e-9, 1e-7)
    if report.verdict == "inapplicable":
        problems.append(f"{criterion} reported inapplicable")
    return problems
