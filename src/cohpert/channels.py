"""Quantum channels in Kraus form.

Construction and CPTP validation, application to states, the canonical
complementary channel, tensor products and the named channel families used
throughout the package.  Channels are immutable and all operations are pure.
A channel holds its Kraus operators as one read-only complex array of shape
``(dim_env, dim_out, dim_in)``, and the channel algebra (tensor product,
complement, application, the CPTP check) acts on that array whole.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import CPTPError, DimensionError
from .linalg import DensityMatrix, _frozen
from .tolerances import CPTP_TOL, DEFAULT, Tolerances

DEFAULT_DIM_CAP = 256

_PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

FAMILIES = (
    "depolarizing",
    "pauli",
    "amplitude_damping",
    "platypus",
    "dephrasure",
    "erasure",
    "identity",
    "custom_kraus",
    "tensor",
)


@dataclass(frozen=True)
class ChannelSpec:
    """Serializable description of a named channel.

    JSON form: ``{"family": "...", "params": {...}, "children": [...]}``.
    ``children`` is only used by the ``tensor`` family; ``custom_kraus``
    carries its matrices in ``params["kraus"]`` as nested ``[re, im]`` pairs.
    """

    family: str
    params: Mapping[str, object] = field(default_factory=dict)
    children: tuple["ChannelSpec", ...] = ()

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "params": dict(self.params),
            "children": [c.to_json() for c in self.children],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "ChannelSpec":
        if not isinstance(obj, Mapping):
            raise ValueError(f"channel spec must be an object, got {type(obj).__name__}")
        family = obj.get("family")
        if family not in FAMILIES:
            raise ValueError(f"unknown channel family {family!r}; expected one of {FAMILIES}")
        params = obj.get("params", {}) or {}
        if not isinstance(params, Mapping):
            raise ValueError(f"channel params must be an object, got {params!r}")
        children = obj.get("children", []) or []
        if not isinstance(children, list):
            raise ValueError(f"channel children must be a list, got {children!r}")
        return cls(family=family, params=params, children=tuple(map(cls.from_json, children)))


@dataclass(frozen=True)
class QuantumChannel:
    """A CPTP map given by Kraus operators ``K_k`` of shape (dim_out, dim_in).

    ``kraus`` is one read-only complex array of shape
    ``(dim_env, dim_out, dim_in)`` whose slice ``kraus[k]`` is ``K_k``; the
    number of Kraus operators fixes the environment dimension used by the
    canonical complementary channel.
    """

    kraus: np.ndarray
    dim_in: int
    dim_out: int
    dim_env: int
    spec: ChannelSpec | None = None

    def cptp_residual(self) -> float:
        # sum_k K_k^dag K_k as one product of the stacked rows of every K_k
        stacked = self.kraus.reshape(-1, self.dim_in)
        return float(np.linalg.norm(stacked.conj().T @ stacked - np.eye(self.dim_in)))


def make_channel(
    kraus: Union[Sequence[np.ndarray], np.ndarray],
    spec: ChannelSpec | None = None,
) -> QuantumChannel:
    """Validate a Kraus set, given as a sequence of matrices or as one
    ``(dim_env, dim_out, dim_in)`` array, and wrap a copy of it as a channel.

    All operators must share one (dim_out, dim_in) shape and satisfy
    trace preservation ``sum_k K_k^dag K_k = 1`` within ``CPTP_TOL``.
    """
    if not isinstance(kraus, np.ndarray):
        shapes = sorted({np.shape(K) for K in kraus})
        if len(shapes) > 1:
            raise DimensionError(f"Kraus shapes differ: {shapes}")
    ops = _frozen(kraus)
    if len(ops) == 0:
        raise ValueError("a channel needs at least one Kraus operator")
    if ops.ndim != 3:
        raise DimensionError(f"Kraus operators must be matrices, got shape {ops.shape[1:]}")
    ch = QuantumChannel(
        kraus=ops,
        dim_in=ops.shape[2],
        dim_out=ops.shape[1],
        dim_env=ops.shape[0],
        spec=spec,
    )
    residual = ch.cptp_residual()
    if residual > CPTP_TOL:
        raise CPTPError(
            f"Kraus set is not trace preserving: residual {residual:.3e} > {CPTP_TOL:.1e}"
        )
    return ch


def apply_matrix(ch: QuantumChannel, m: np.ndarray) -> np.ndarray:
    """Linear action ``sum_k K_k m K_k^dag`` on an arbitrary operator."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (ch.dim_in, ch.dim_in):
        raise DimensionError(f"operator shape {m.shape} does not match dim_in {ch.dim_in}")
    return (ch.kraus @ m @ ch.kraus.conj().transpose(0, 2, 1)).sum(axis=0)


def apply(ch: QuantumChannel, rho: DensityMatrix, tol: Tolerances = DEFAULT) -> DensityMatrix:
    """Apply the channel to a state; the output is validated as a state."""
    return DensityMatrix.from_matrix(apply_matrix(ch, rho.matrix), tol)


def complement(ch: QuantumChannel) -> QuantumChannel:
    """Canonical complementary channel in the Kraus-index environment basis.

    The complement maps the input to the environment of the Stinespring
    dilation ``V|x> = sum_k (K_k|x>) (x) |k>``; concretely its output is the
    Gram matrix ``[tr(K_k rho K_l^dag)]_{kl}``.  Its Kraus operators are
    ``L_m`` (one per output basis vector ``m``) with ``[L_m]_{k,:}`` equal to
    row ``m`` of ``K_k``: the Kraus array with its first two axes swapped.
    """
    comp_spec = None
    if ch.spec is not None and ch.spec.family == "amplitude_damping":
        # the amplitude-damping complement is amplitude damping with 1-gamma
        comp_spec = ChannelSpec("amplitude_damping", {"gamma": 1.0 - float(ch.spec.params["gamma"])})
    return make_channel(ch.kraus.transpose(1, 0, 2), spec=comp_spec)


def tensor(a: QuantumChannel, b: QuantumChannel) -> QuantumChannel:
    """Tensor product with Kraus set ``{K_i (x) M_j}``, its input and output
    dimensions at most ``DEFAULT_DIM_CAP``.

    The environment index ordering is ``(i, j) -> i * b.dim_env + j``, so the
    complement of a tensor product equals the tensor product of complements
    up to that fixed relabeling.
    """
    if a.dim_in * b.dim_in > DEFAULT_DIM_CAP or a.dim_out * b.dim_out > DEFAULT_DIM_CAP:
        raise DimensionError(
            f"tensor product dimension exceeds cap {DEFAULT_DIM_CAP}; "
            f"got in={a.dim_in * b.dim_in}, out={a.dim_out * b.dim_out}"
        )
    spec = None
    if a.spec is not None and b.spec is not None:
        spec = ChannelSpec("tensor", {}, (a.spec, b.spec))
    # the Kronecker product on all three axes: slice i * b.dim_env + j is kron(K_i, M_j)
    return make_channel(np.kron(a.kraus, b.kraus), spec=spec)


def tensor_all(channels: Sequence[QuantumChannel]) -> QuantumChannel:
    """Left-associated tensor product of several channels."""
    if not channels:
        raise ValueError("need at least one channel")
    out = channels[0]
    for ch in channels[1:]:
        out = tensor(out, ch)
    return out


def _is_number_type(kind: type) -> bool:
    """Whether values of type ``kind`` are real numbers: ``bool`` and ``str`` are not."""
    return issubclass(kind, numbers.Real) and not issubclass(kind, bool)


def _number(what: str, value: object) -> float:
    """``float(value)``, or a ``ValueError`` naming ``what`` unless ``value``
    is a real number (:func:`_is_number_type`)."""
    if not _is_number_type(type(value)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _check_dimension(dim: object, cap: int) -> int:
    """``dim`` as an ``int``, or a ``ValueError`` unless it is a whole number
    of levels, at least 1 (``True`` is not a number of levels) and at most ``cap``."""
    if isinstance(dim, float) and dim.is_integer():
        dim = int(dim)
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
        raise ValueError(f"parameter dim must be an integer of at least 1, got {dim!r}")
    if dim > cap:
        raise ValueError(f"parameter dim must be at most {cap}, got {dim!r}")
    return int(dim)


def _check_unit_interval(name: str, value: float) -> float:
    value = _number(f"parameter {name}", value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"parameter {name}={value!r} outside [0, 1]")
    return value


def depolarizing_channel(p: float) -> QuantumChannel:
    """Qubit depolarizing channel ``rho -> (1-p) rho + p tr(rho) 1/2``.

    Pauli-Kraus form with weights ``{1 - 3p/4, p/4, p/4, p/4}``.
    """
    p = _check_unit_interval("p", p)
    weights = [1.0 - 3.0 * p / 4.0, p / 4.0, p / 4.0, p / 4.0]
    kraus = [np.sqrt(w) * s for w, s in zip(weights, _PAULIS)]
    return make_channel(kraus, spec=ChannelSpec("depolarizing", {"p": p}))


def pauli_channel(probs: Sequence[float]) -> QuantumChannel:
    """Qubit Pauli channel with Kraus operators ``sqrt(p_i) sigma_i``."""
    try:
        probs = [_number("parameter probs", q) for q in probs]
    except (TypeError, ValueError):
        raise ValueError(f"parameter probs must be 4 numbers, got {probs!r}") from None
    if len(probs) != 4:
        raise ValueError(f"need 4 Pauli probabilities, got {len(probs)}")
    if any(q < 0 for q in probs):
        raise ValueError("Pauli probabilities must be non-negative")
    if abs(sum(probs) - 1.0) > 1e-12:
        raise ValueError(f"Pauli probabilities sum to {sum(probs)!r}, not 1")
    kraus = [np.sqrt(q) * s for q, s in zip(probs, _PAULIS)]
    return make_channel(kraus, spec=ChannelSpec("pauli", {"probs": probs}))


def amplitude_damping_channel(gamma: float) -> QuantumChannel:
    """Qubit amplitude damping with decay probability ``gamma``."""
    gamma = _check_unit_interval("gamma", gamma)
    a0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    a1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return make_channel([a0, a1], spec=ChannelSpec("amplitude_damping", {"gamma": gamma}))


def platypus_channel(s: float) -> QuantumChannel:
    """Qutrit channel mixing a coherent two-level branch with relay levels.

    Defined by the isometry sending ``|0> -> sqrt(s)|0>|0> + sqrt(1-s)|1>|1>``,
    ``|1> -> |2>|0>`` and ``|2> -> |2>|1>`` (output (x) environment); the two
    Kraus operators are the environment components of that isometry.
    """
    s = _number("parameter s", s)
    if not 0.0 < s <= 0.5:
        raise ValueError(f"parameter s={s!r} outside (0, 1/2]")
    k0 = np.zeros((3, 3), dtype=complex)
    k1 = np.zeros((3, 3), dtype=complex)
    k0[0, 0] = np.sqrt(s)
    k0[2, 1] = 1.0
    k1[1, 0] = np.sqrt(1.0 - s)
    k1[2, 2] = 1.0
    return make_channel([k0, k1], spec=ChannelSpec("platypus", {"s": s}))


def dephrasure_channel(p: float, q: float) -> QuantumChannel:
    """Dephasing with probability ``p`` followed by erasure with probability ``q``.

    ``rho -> (1-q)[(1-p) rho + p Z rho Z] + q tr(rho) |e><e|`` with the qubit
    embedded in a qutrit output whose third level is the erasure flag.
    """
    p = _check_unit_interval("p", p)
    q = _check_unit_interval("q", q)
    embed = np.zeros((3, 2), dtype=complex)
    embed[0, 0] = embed[1, 1] = 1.0
    z_embed = np.zeros((3, 2), dtype=complex)
    z_embed[0, 0] = 1.0
    z_embed[1, 1] = -1.0
    e0 = np.zeros((3, 2), dtype=complex)
    e0[2, 0] = 1.0
    e1 = np.zeros((3, 2), dtype=complex)
    e1[2, 1] = 1.0
    kraus = [
        np.sqrt((1.0 - q) * (1.0 - p)) * embed,
        np.sqrt((1.0 - q) * p) * z_embed,
        np.sqrt(q) * e0,
        np.sqrt(q) * e1,
    ]
    return make_channel(kraus, spec=ChannelSpec("dephrasure", {"p": p, "q": q}))


def erasure_channel(q: float, dim: int = 2) -> QuantumChannel:
    """Erasure to a flag level with probability ``q`` on a ``dim``-level input."""
    q = _check_unit_interval("q", q)
    dim = _check_dimension(dim, DEFAULT_DIM_CAP - 1)  # the flag is one more output level
    kraus = np.zeros((dim + 1, dim + 1, dim), dtype=complex)
    kraus[0, :dim] = np.sqrt(1.0 - q) * np.eye(dim)
    kraus[np.arange(1, dim + 1), dim, np.arange(dim)] = np.sqrt(q)  # K_{i+1} = sqrt(q)|flag><i|
    return make_channel(kraus, spec=ChannelSpec("erasure", {"q": q, "dim": dim}))


def identity_channel(dim: int = 2) -> QuantumChannel:
    dim = _check_dimension(dim, DEFAULT_DIM_CAP)
    return make_channel([np.eye(dim, dtype=complex)], spec=ChannelSpec("identity", {"dim": dim}))


def matrix_from_pairs(nested: Sequence) -> np.ndarray:
    """Decode a matrix given as nested rows of ``[re, im]`` pairs of numbers
    (:func:`_is_number_type`: not ``true`` or ``"1"``)."""
    try:
        entries = np.asarray(nested, dtype=object)
    except ValueError as exc:
        raise ValueError(f"matrix entries must be [re, im] pairs of numbers: {exc}") from exc
    if entries.ndim != 3 or entries.shape[2] != 2:
        raise ValueError(f"matrix must be rows of [re, im] pairs, got shape {entries.shape}")
    # numpy would read true as 1.0 and "1" as 1.0, so each entry's type is checked
    bad = [kind for kind in set(map(type, entries.ravel().tolist())) if not _is_number_type(kind)]
    if bad:
        raise ValueError(f"matrix entries must be [re, im] pairs of numbers, got {bad[0].__name__}")
    arr = entries.astype(float)
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def _param(spec: ChannelSpec, name: str) -> object:
    try:
        return spec.params[name]
    except KeyError:
        raise ValueError(f"channel family {spec.family!r} needs parameter {name!r}") from None


def builtin(spec: ChannelSpec) -> QuantumChannel:
    """Construct a channel from its serializable description."""
    family = spec.family
    if family == "depolarizing":
        return depolarizing_channel(_param(spec, "p"))
    if family == "pauli":
        return pauli_channel(_param(spec, "probs"))
    if family == "amplitude_damping":
        return amplitude_damping_channel(_param(spec, "gamma"))
    if family == "platypus":
        return platypus_channel(_param(spec, "s"))
    if family == "dephrasure":
        return dephrasure_channel(_param(spec, "p"), _param(spec, "q"))
    if family == "erasure":
        return erasure_channel(_param(spec, "q"), spec.params.get("dim", 2))
    if family == "identity":
        return identity_channel(spec.params.get("dim", 2))
    if family == "custom_kraus":
        kraus = _param(spec, "kraus")
        if not isinstance(kraus, list):
            raise ValueError(f"parameter kraus must be a list of matrices, got {kraus!r}")
        return make_channel([matrix_from_pairs(k) for k in kraus], spec=spec)
    if family == "tensor":
        if len(spec.children) < 2:
            raise ValueError("tensor family needs at least two children")
        return tensor_all([builtin(c) for c in spec.children])
    raise ValueError(f"unknown channel family {family!r}")


def channel_from_json(obj: Union[Mapping, ChannelSpec]) -> QuantumChannel:
    spec = obj if isinstance(obj, ChannelSpec) else ChannelSpec.from_json(obj)
    return builtin(spec)
