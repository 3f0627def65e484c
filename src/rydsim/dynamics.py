"""Dense complex linear algebra and a Lindblad master-equation integrator.

States are density matrices over an explicit, ordered basis of atomic
levels (for example ``g, r, r'`` for one atom or ``gg, gr, rg, rr`` for a
blockaded pair). Hamiltonians are stored as H/hbar in angular-frequency
units (rad/us) and durations are in microseconds, so everything in this
module is unit-consistent with :mod:`rydsim.units`.

The integrator is a fixed-step classical 4th-order (RK4) scheme. Because
the master equation is linear in rho for a piecewise-constant generator,
the RK4 update is itself a fixed linear map per step; ``evolve`` builds
that map once per segment and applies it by repeated squaring, which is
algebraically identical to stepping but costs O(log n) matrix products.

Each segment is propagated in the smallest set of vec(rho) entries that
holds the current state and that the Liouvillian M maps into itself (the
closure of the state's support under the nonzero patterns of H and of the
dissipator). The RK4 map is a polynomial in M, so every entry outside that
set stays exactly zero and the restriction skips only zero-valued terms.
The dark r' state makes it small: 5 of 9 entries for one atom starting in
g, 25 of 81 for two atoms.

On that set the state is held in real coordinates x (Re rho_ii, and Re
rho_ij and Im rho_ij for i < j), rho = sum_b x_b E_b. Column b of the real
generator is -i[H, E_b] + D(E_b) in those coordinates; every entry of the
commutator part is a signed sum of at most two parts of H, so all of a
scan point's shots get theirs from one product with a cached 0/+-1
Jacobian, and no d^2 x d^2 matrix is built (``liouvillian`` builds the
full complex M as the reference for tests). Each shot gets its own step
count and ``rk4_map``, and the real step maps are powered as a stack in
which every shot keeps its own squaring sequence, so its numbers are the
ones it gets alone; a single DensityMatrix runs as a batch of one.

Each segment's step is capped so that h*||H||inf and h*||D||inf (D the
dissipator) stay at most 0.04: strong interactions and fast decays get
finer steps than ``dt_max``, and RK4 stays stable.

The trace is never renormalized. Every state ``evolve`` returns is checked
for finite entries, Hermiticity, unit trace and positivity, once per stack;
a failure raises ``FloatingPointError``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "POSITIVITY_TOL",
    "DEFAULT_DT_MAX",
    "as_square_matrix",
    "hermiticity_defect",
    "tensor",
    "DensityMatrix",
    "LindbladChannel",
    "Segment",
    "population",
    "coherence",
    "apply_unitary",
    "liouvillian",
    "rk4_map",
    "evolve",
]

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-6
POSITIVITY_TOL = 1e-8

# Default integrator step (us). Halving it moves populations by well under
# 1e-8 on the standard presets (RK4 phase error per unit time scales as
# omega^5 * dt^4 / 120, and the slowest drives run at ~12.6 rad/us).
DEFAULT_DT_MAX = 1e-3

# Largest h * max(||H||inf, ||D||inf) of an RK4 step; D is the dissipator
# superoperator. It keeps the per-step phase and decay small (RK4 is stable
# for real decay rates up to 2.78 / h).
STEP_NORM_PRODUCT = 0.04


def as_square_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite complex square ndarray, raising on anything else."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    return a


def hermiticity_defect(m) -> float:
    """Max elementwise deviation |m - m^dagger|, over a whole stack of matrices."""
    a = np.asarray(m, dtype=complex)
    return float(np.abs(a - a.conj().swapaxes(-1, -2)).max(initial=0.0))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product over the last two axes, leading axes broadcast: the
    one product-basis rule (np.kron's result, at a fraction of its call cost)."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def _trusted(cls, *values):
    """``cls(*values)`` for a frozen dataclass without its ``__post_init__``
    checks, for values already checked or valid by construction (arrays read-only)."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two square matrices.

    Atom 1 is the left factor, so for two qubits the composite basis order
    is gg, gr, rg, rr.
    """
    return _kron(as_square_matrix(a, "left factor"), as_square_matrix(b, "right factor"))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Complex Hermitian matrix over an ordered basis of level labels."""

    matrix: np.ndarray
    basis_labels: tuple[str, ...]

    def __post_init__(self):
        m = as_square_matrix(self.matrix, "density matrix").copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))
        if len(self.basis_labels) != self.dim:
            raise ValueError(
                f"{len(self.basis_labels)} labels for a dim-{self.dim} matrix"
            )
        if len(set(self.basis_labels)) != self.dim:
            raise ValueError("basis labels must be unique")
        _check_states(m[None], "in a density matrix", positive=False, error=ValueError)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def index(self, label: str) -> int:
        try:
            return self.basis_labels.index(label)
        except ValueError:
            raise ValueError(
                f"unknown basis label {label!r}; basis is {list(self.basis_labels)}"
            ) from None

    @classmethod
    def pure(cls, label: str, basis_labels) -> "DensityMatrix":
        labels = tuple(basis_labels)
        vec = np.zeros(len(labels), dtype=complex)
        vec[labels.index(label)] = 1.0
        return cls.from_state_vector(vec, labels)

    @classmethod
    def from_state_vector(cls, vec, basis_labels) -> "DensityMatrix":
        v = np.asarray(vec, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("zero state vector")
        v = v / norm
        return cls(np.outer(v, v.conj()), tuple(basis_labels))

    def population(self, label: str) -> float:
        return population(self, label)

    def coherence(self, label_a: str, label_b: str) -> complex:
        return coherence(self, label_a, label_b)

    def populations(self) -> dict[str, float]:
        return {lbl: self.population(lbl) for lbl in self.basis_labels}

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])


@dataclass(frozen=True, eq=False)
class LindbladChannel:
    """Jump operator with the rate absorbed as sqrt(rate), units (us)^-1/2."""

    operator: np.ndarray

    def __post_init__(self):
        op = as_square_matrix(self.operator, "jump operator").copy()
        op.setflags(write=False)
        object.__setattr__(self, "operator", op)

    @property
    def dim(self) -> int:
        return self.operator.shape[0]

    @classmethod
    def from_rate(cls, rate: float, operator) -> "LindbladChannel":
        """Build sqrt(rate) * operator from a rate in 1/us."""
        if not 0 <= rate < math.inf:
            raise ValueError(f"rate must be nonnegative and finite, got {rate}")
        return cls(math.sqrt(rate) * as_square_matrix(operator))


@dataclass(frozen=True, eq=False)
class Segment:
    """A constant Hamiltonian (H/hbar, rad/us) applied for a duration in us."""

    hamiltonian: np.ndarray
    duration: float

    def __post_init__(self):
        h = as_square_matrix(self.hamiltonian, "hamiltonian").copy()
        h.setflags(write=False)
        object.__setattr__(self, "hamiltonian", h)
        if not 0 <= self.duration < math.inf:
            raise ValueError(f"duration must be nonnegative and finite, got {self.duration}")
        _check_hamiltonians(h)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


def population(rho: DensityMatrix, label: str) -> float:
    """Diagonal entry of rho for a basis label, reported in [0, 1].

    Values are allowed to stray into [-1e-8, 1 + 1e-8] from integrator
    error; anything further out indicates a modeling bug and raises.
    """
    idx = rho.index(label)
    p = float(np.real(rho.matrix[idx, idx]))
    if p < -POSITIVITY_TOL or p > 1.0 + POSITIVITY_TOL:
        raise ValueError(f"population of {label!r} is {p}, outside tolerance")
    return min(max(p, 0.0), 1.0)


def coherence(rho: DensityMatrix, label_a: str, label_b: str) -> complex:
    """Off-diagonal matrix element <a|rho|b>."""
    if label_a == label_b:
        raise ValueError("coherence requires two distinct labels")
    return complex(rho.matrix[rho.index(label_a), rho.index(label_b)])


def apply_unitary(rho, u):
    """Conjugate rho by a unitary: U rho U^dagger.

    ``rho`` may also be an (n, d, d) stack of states with ``u`` one unitary
    per state; the read-only result is checked like a DensityMatrix
    (finite, Hermitian, unit trace), raising ``FloatingPointError``.
    """
    if not isinstance(rho, DensityMatrix):
        m = u @ rho @ np.conj(u).swapaxes(1, 2)
        m.setflags(write=False)
        _check_states(m, "after a unitary", positive=False)
        return m
    u = as_square_matrix(u, "unitary")
    if u.shape[0] != rho.dim:
        raise ValueError(f"unitary dim {u.shape[0]} != state dim {rho.dim}")
    return DensityMatrix(u @ rho.matrix @ u.conj().T, rho.basis_labels)


def _check_states(m, where: str, positive: bool = True, error=FloatingPointError) -> None:
    """Raise ``error`` unless every state of the (n, d, d) stack is finite,
    Hermitian, of unit trace and (with ``positive``) positive."""
    if not np.isfinite(m).all():
        raise error(f"NaN/Inf in state {where}")
    if hermiticity_defect(m) > HERMITICITY_TOL:
        raise error(f"Hermiticity lost {where}")
    if np.abs(m.diagonal(0, 1, 2).real.sum(axis=1) - 1.0).max() > TRACE_TOL:
        raise error(f"trace diverged {where}")
    if positive and np.linalg.eigvalsh(m).min() < -1e-6:
        raise error(f"positivity lost {where}")


def _check_hamiltonians(hams: np.ndarray) -> None:
    """Raise ``ValueError`` unless every Hamiltonian of the stack is finite and Hermitian."""
    if not np.isfinite(hams).all():
        raise ValueError("hamiltonian has non-finite entries")
    if hermiticity_defect(hams) > HERMITICITY_TOL:
        raise ValueError("segment hamiltonian is not Hermitian")


def dissipator_superop(operators: np.ndarray) -> np.ndarray:
    """Superoperator of the jump terms of a (c, d, d) stack of jump operators
    (zero for c = 0); built on a ``_real_block`` miss and by ``liouvillian``."""
    d = operators.shape[-1]
    eye = np.eye(d)
    m = np.zeros((d * d, d * d), dtype=complex)
    for op in operators:
        opdop = op.conj().T @ op
        m += _kron(op, op.conj())
        m -= 0.5 * (_kron(opdop, eye) + _kron(eye, opdop.T))
    return m


def liouvillian(hamiltonian, channels) -> np.ndarray:
    """Superoperator M with vec(drho/dt) = M vec(rho), row-major vec.

    The full d^2 x d^2 complex reference; ``evolve`` builds its real
    generator from H and the cached dissipator block instead.
    """
    h = as_square_matrix(hamiltonian, "hamiltonian")
    d = h.shape[0]
    eye = np.eye(d)
    m = _kron(-1j * h, eye) + _kron(eye, 1j * h.T)  # -i (H (x) I - I (x) H^T)
    channels = tuple(channels)
    for ch in channels:
        if ch.dim != d:
            raise ValueError(f"channel dim {ch.dim} does not match system dim {d}")
    if channels:
        m += dissipator_superop(np.array([ch.operator for ch in channels]))
    return m


def rk4_map(m: np.ndarray, dt: float) -> np.ndarray:
    """One-step propagator of classical RK4 applied to vec(rho)' = M vec(rho).

    For a linear, constant-coefficient system the RK4 update is exactly the
    degree-4 Taylor polynomial of exp(dt*M).
    """
    hm = dt * m
    r = np.eye(m.shape[0], dtype=hm.dtype)
    r += hm
    term = hm
    for k in (2, 3, 4):
        term = term @ hm
        term /= k
        r += term
    return r


def _power_apply(r: np.ndarray, n, vec: np.ndarray) -> np.ndarray:
    """Compute r^n @ vec by binary powering.

    On stacks (r (m, k, k), vec (m, k, j), n m counts) each slice takes the
    products it takes alone: it keeps the product at its own set bits only,
    and squarings past its last bit are never applied to it.
    """
    result, base, n = vec, r, np.asarray(n)
    while n.any():
        odd, n = n % 2 == 1, n >> 1
        if odd.all():
            result = base @ result
        elif odd.any():
            result = np.where(odd[:, None, None], base @ result, result)
        if n.any():
            base = base @ base
    return result


@functools.lru_cache(maxsize=256)
def _real_block(pattern: bytes, operators: bytes, support: bytes) -> tuple:
    """Real coordinates on the vec(rho) entries a segment can reach.

    ``pattern`` is ``(H != 0).tobytes()``, ``operators`` the jump operators'
    bytes joined in channel order and ``support`` is ``(vec != 0).tobytes()``:
    keyed by content alone, equal channels share one block in any process,
    unpickled ones in a pool worker included. The support, closed under
    (i, j) -> (j, i), is closed under the nonzero pattern of H (x) I,
    I (x) H^T and the dissipator D, which contains M's pattern, so M maps the
    result into itself. The coordinates are Re rho_ii, then Re rho_ij and Im rho_ij for
    i < j (Havel, J. Math. Phys. 44, 534 (2003)), so rho = sum_b x_b E_b for a
    Hermitian basis E (k x d x d). Returns ``gather``, the source of each slot
    of ``vec.view(np.float64)`` (see ``_states``), the positions ``read`` of the
    coordinates in it, ``generator``, which maps an (m, d, d) stack of
    Hamiltonians with this pattern to their (m, k, k) real generators: column
    b is -i[H, E_b] + D(E_b) read in the coordinates, and ``||D||inf`` (0
    without channels).
    """
    n = len(support)
    dim = math.isqrt(n)
    h = np.frombuffer(pattern, dtype=bool).reshape(dim, dim)
    eye = np.eye(dim, dtype=bool)
    dissipator = dissipator_superop(np.frombuffer(operators, dtype=complex).reshape(-1, dim, dim))
    edges = _kron(h, eye) | _kron(eye, h.T) | (dissipator != 0)
    start = np.frombuffer(support, dtype=bool).reshape(dim, dim)
    reached = (start | start.T).reshape(-1)
    frontier = reached
    while frontier.any():
        frontier = edges[:, frontier].any(axis=1) & ~reached
        reached |= frontier
    idx = np.flatnonzero(reached)
    rows, cols = np.divmod(idx, dim)
    diag, upper = idx[rows == cols], idx[rows < cols]
    lower = (upper % dim) * dim + upper // dim
    nd, nu = len(diag), len(upper)
    k = nd + 2 * nu
    re, im = nd + np.arange(nu), nd + nu + np.arange(nu)
    # Re rho_ij is 1 at ij and ji; Im rho_ij is i at ij and -i at ji
    basis = np.zeros((k, n), dtype=complex)
    basis[np.arange(nd), diag] = 1
    basis[re, upper] = basis[re, lower] = 1
    basis[im, upper], basis[im, lower] = 1j, -1j
    read = np.r_[2 * diag, 2 * upper, 2 * upper + 1]
    # each slot of vec.view(np.float64) is x_b (gather b), -x_b (k + b) or 0 (2k)
    gather = np.full(2 * n, 2 * k)
    gather[read] = np.arange(k)
    gather[2 * lower], gather[2 * lower + 1] = re, k + im
    # einsum, not @: the product signs some of the zeros differently
    g_d = np.einsum("rs,bs->br", dissipator, basis).view(np.float64)[:, read].T.copy()
    basis = basis.reshape(k, dim, dim)
    # Each coordinate of -i[H, E_b] is a signed sum of at most two real or
    # imaginary parts of H, with weights +-1 or +-2: gathering those two
    # rounds like the commutator does.
    parts = np.flatnonzero(np.repeat(h.reshape(-1), 2))
    jacobian = np.empty((len(parts), k, k), dtype=np.int8)  # exact: 0, +-1 or +-2
    for u, part in enumerate(parts):
        unit = np.zeros(2 * n)
        unit[part] = 1
        unit = unit.view(complex).reshape(dim, dim)
        comm = (-1j * (unit @ basis - basis @ unit)).reshape(k, n)
        jacobian[u] = comm.view(np.float64)[:, read].T
    jacobian = jacobian.reshape(len(parts), k * k)
    # the nonzero parts of each entry, in part order; a zero weight reads part 0
    entry, row = np.nonzero(jacobian.T)
    slot = np.arange(len(entry)) - np.searchsorted(entry, entry)
    source, weight = np.zeros((2, k * k), dtype=int), np.zeros((2, k * k))
    source[slot, entry], weight[slot, entry] = parts[row], jacobian[row, entry]
    for a in (gather, read, g_d):
        a.setflags(write=False)

    def generator(hams: np.ndarray) -> np.ndarray:
        flat = hams.reshape(len(hams), -1).view(np.float64)
        gen = flat[:, source[0]] * weight[0] + flat[:, source[1]] * weight[1]
        # in C order: in the gathered layout numpy's products skip BLAS and round differently
        return np.ascontiguousarray(gen.reshape(-1, k, k) + g_d)

    return gather, read, generator, float(np.linalg.norm(dissipator, np.inf))


def _step_maps(vecs: np.ndarray, hams: np.ndarray, durations: np.ndarray,
               channels: tuple, dt_max: float):
    """For shots with equal H patterns and supports of vec(rho) ``vecs``:
    their block's ``gather``, (m, k, k) step maps, step counts (0 for an
    empty segment) and (m, k, 1) coordinates."""
    pattern, support = (hams[0] != 0).tobytes(), (vecs[0] != 0).tobytes()
    operators = b"".join(ch.operator.tobytes() for ch in channels)
    gather, read, generator, d_norm = _real_block(pattern, operators, support)
    # Stiff segments (a strong pair interaction, a fast decay) get finer
    # steps than dt_max, so that h*||H||inf and h*||D||inf stay small and
    # RK4 stays stable; the step bound requested by the caller still holds.
    rate = np.maximum(np.abs(hams).sum(axis=2).max(axis=1), d_norm)
    with np.errstate(divide="ignore"):
        n_steps = np.ceil(durations / np.minimum(dt_max, STEP_NORM_PRODUCT / rate))
    n_steps = np.maximum(n_steps, durations > 0)  # >= 1 step unless empty
    if not (n_steps < 2**53).all():  # or NaN; past 2**63 the int wraps and powering never ends
        raise FloatingPointError(f"a segment needs {n_steps.max():.3g} RK4 steps; its rate "
                                 f"{rate.max():.3g}/us is too large to integrate")
    n_steps = n_steps.astype(int)
    maps = generator(hams)
    maps[n_steps == 0] = 0  # never applied; zeroed so that squaring it cannot overflow
    for i, (duration, n) in enumerate(zip(durations.tolist(), n_steps.tolist())):
        if n:  # per shot, with a scalar step: perfbench's tracer counts steps per call
            maps[i] = rk4_map(maps[i], duration / n)
    return gather, maps, n_steps, np.ascontiguousarray(vecs.view(np.float64)[:, read])[..., None]


def _states(x: np.ndarray, gather: np.ndarray, where: str) -> np.ndarray:
    """The checked, read-only (m, d, d) states with coordinates x (m, k, 1) and ``gather``."""
    x = x[..., 0]
    dim = math.isqrt(len(gather) // 2)
    # rho = sum_b x_b E_b exactly: each slot is one signed coordinate or 0,
    # and + 0.0 turns -0.0 into 0.0 as that sum does
    m = np.take(np.concatenate((x, -x, np.zeros((len(x), 1))), axis=1), gather, axis=1) + 0.0
    m = m.view(complex).reshape(-1, dim, dim)
    m.setflags(write=False)
    _check_states(m, where)
    return m


def evolve(rho0, segments, channels=(), dt_max: float = DEFAULT_DT_MAX,
           sample_dt: float | None = None):
    """Integrate the Lindblad equation through piecewise-constant segments.

    drho/dt = -i[H, rho] + sum_k (L_k rho L_k^dag - 1/2 {L_k^dag L_k, rho})

    Each segment is subdivided into fixed RK4 steps of size <= ``dt_max``
    and propagated in real coordinates on its invariant subspace (see the
    module docstring). For a DensityMatrix the segments run in turn and the
    trajectory is returned: it always includes the initial state and every
    segment boundary, and ``sample_dt`` adds interior samples at roughly
    that spacing without changing the boundary states. An (n, d, d) stack
    of states (a scan point's shots) takes no ``sample_dt``: each state runs
    through its own one of n ``segments`` and the read-only stack of end
    states is returned. The trace is never renormalized.

    Raises ``ValueError`` on dimension mismatches or a non-finite or
    non-Hermitian Hamiltonian, and ``FloatingPointError`` when a returned
    state is not finite, not Hermitian, has lost its trace or its positivity.
    """
    if not dt_max > 0:
        raise ValueError(f"dt_max must be positive, got {dt_max}")
    if sample_dt is not None and not 0 < sample_dt < math.inf:
        raise ValueError(f"sample_dt must be positive and finite, got {sample_dt}")
    channels, segments = tuple(channels), list(segments)
    dim = rho0.dim if isinstance(rho0, DensityMatrix) else rho0.shape[1]
    for item in (*channels, *segments):
        if item.dim != dim:
            raise ValueError(f"{type(item).__name__} dim {item.dim} != state dim {dim}")
    hams = np.array([seg.hamiltonian for seg in segments]).reshape(len(segments), dim, dim)
    _check_hamiltonians(hams)  # compiled segments skip Segment's check: one per call here
    if not isinstance(rho0, DensityMatrix):
        if sample_dt is not None:
            raise ValueError("sample_dt needs a single DensityMatrix, not a stack of states")
        vecs = np.ascontiguousarray(rho0, dtype=complex).reshape(len(segments), -1)
        durations = np.array([seg.duration for seg in segments])
        # shots with equal H patterns and state supports share one block
        keys = np.c_[hams.reshape(len(hams), -1) != 0, vecs != 0]
        out, todo = np.empty_like(vecs), np.ones(len(keys), dtype=bool)
        while todo.any():
            sel = (keys == keys[todo.argmax()]).all(axis=1)
            todo &= ~sel
            gather, maps, n_steps, x = _step_maps(
                vecs[sel], hams[sel], durations[sel], channels, dt_max)
            where = f"at t = {durations[sel].max():.6g} us"
            out[sel] = _states(_power_apply(maps, n_steps, x), gather, where).reshape(len(x), -1)
        out = out.reshape(rho0.shape)
        out.setflags(write=False)
        return out

    trajectory: list[tuple[float, DensityMatrix]] = [(0.0, rho0)]
    state, t = np.ascontiguousarray(rho0.matrix, dtype=complex), 0.0
    for seg in segments:
        if seg.duration == 0.0:
            trajectory.append((t, trajectory[-1][1]))
            continue
        vecs, hams = state.reshape(1, -1), seg.hamiltonian[None]
        gather, maps, n_steps, x = _step_maps(vecs, hams, np.r_[seg.duration], channels, dt_max)
        n_steps = int(n_steps[0])
        h = seg.duration / n_steps
        chunk = n_steps if sample_dt is None else max(1, round(sample_dt / h))
        ends = np.r_[chunk:n_steps:chunk, n_steps]
        # each sample is its own power of the start state, so sampling leaves the end as it is
        x = _power_apply(maps, ends, np.broadcast_to(x, (len(ends), *x.shape[1:])))
        states = _states(x, gather, f"in t = {t:.6g} to {t + seg.duration:.6g} us")
        for end, state in zip(ends.tolist(), states):
            time = t + (seg.duration if end == n_steps else end * h)
            trajectory.append((time, _trusted(DensityMatrix, state, rho0.basis_labels)))
        state, t = states[-1], t + seg.duration
    return trajectory
