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
generator is -i[H, E_b] + D(E_b) in those coordinates, with the dissipator
part cached beside the basis, so no d^2 x d^2 matrix is built per segment
(``liouvillian`` builds the full complex M as the reference for tests).
The RK4 map is built and powered with real products (a 25x25 real product
costs about half of a complex one).

Each segment's step is capped so that h*||H||inf and h*||D||inf (D the
dissipator) stay at most 0.04: strong interactions and fast decays get
finer steps than ``dt_max``, and RK4 stays stable.

The trace is never renormalized. Every state ``evolve`` returns is checked
once for finite entries, Hermiticity, unit trace and positivity; a
failure raises ``FloatingPointError``.
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
    "matrices_close",
    "hermiticity_defect",
    "tensor",
    "DensityMatrix",
    "LindbladChannel",
    "Segment",
    "population",
    "population_vector",
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
    """Coerce to a complex square ndarray, raising on anything else."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def matrices_close(a, b, tol: float) -> bool:
    """Elementwise comparison with an explicit absolute tolerance.

    Never use exact float equality on matrices produced by the integrator.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    return bool(np.max(np.abs(a - b)) <= tol)


def hermiticity_defect(m) -> float:
    """Max elementwise deviation |m - m^dagger|."""
    a = np.asarray(m, dtype=complex)
    return float(np.abs(a - a.conj().T).max())


def require_hermitian(m, tol: float = HERMITICITY_TOL, name: str = "matrix") -> None:
    defect = hermiticity_defect(m)
    if defect > tol:
        raise ValueError(f"{name} is not Hermitian (defect {defect:.3e} > {tol:.1e})")


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two square matrices.

    Atom 1 is the left factor, so for two qubits the composite basis order
    is gg, gr, rg, rr.
    """
    a = as_square_matrix(a, "left factor")
    b = as_square_matrix(b, "right factor")
    return np.kron(a, b)


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
        require_hermitian(m, HERMITICITY_TOL, "density matrix")
        tr = float(np.real(np.trace(m)))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} is not 1")

    @classmethod
    def _trusted(cls, matrix: np.ndarray, basis_labels: tuple[str, ...]) -> "DensityMatrix":
        # for states the integrator has already checked; matrix is read-only
        dm = object.__new__(cls)
        object.__setattr__(dm, "matrix", matrix)
        object.__setattr__(dm, "basis_labels", basis_labels)
        return dm

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
        if rate < 0:
            raise ValueError(f"negative rate {rate}")
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
        if not (self.duration >= 0):
            raise ValueError(f"negative duration {self.duration}")
        require_hermitian(h, HERMITICITY_TOL, "segment hamiltonian")

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


def population_vector(rho: DensityMatrix) -> np.ndarray:
    """All populations in basis order, checked and clamped as ``population``."""
    p = rho.matrix.diagonal().real
    bad = (p < -POSITIVITY_TOL) | (p > 1.0 + POSITIVITY_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"population of {rho.basis_labels[i]!r} is {p[i]}, outside tolerance"
        )
    return np.clip(p, 0.0, 1.0)


def coherence(rho: DensityMatrix, label_a: str, label_b: str) -> complex:
    """Off-diagonal matrix element <a|rho|b>."""
    if label_a == label_b:
        raise ValueError("coherence requires two distinct labels")
    return complex(rho.matrix[rho.index(label_a), rho.index(label_b)])


def apply_unitary(rho: DensityMatrix, u) -> DensityMatrix:
    """Conjugate rho by a unitary: U rho U^dagger."""
    u = as_square_matrix(u, "unitary")
    if u.shape[0] != rho.dim:
        raise ValueError(f"unitary dim {u.shape[0]} != state dim {rho.dim}")
    return DensityMatrix(u @ rho.matrix @ u.conj().T, rho.basis_labels)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.kron has high call overhead for the small dims used here
    d1, d2 = a.shape[0], b.shape[0]
    return np.einsum("ij,kl->ikjl", a, b).reshape(d1 * d2, d1 * d2)


@functools.lru_cache(maxsize=128)
def dissipator_superop(channels: tuple) -> np.ndarray:
    """Superoperator of the jump terms alone; cached per channel tuple."""
    if not channels:
        raise ValueError("no channels")
    d = channels[0].dim
    eye = np.eye(d)
    m = np.zeros((d * d, d * d), dtype=complex)
    for ch in channels:
        op = ch.operator
        if op.shape[0] != d:
            raise ValueError(f"channel dims disagree: {op.shape[0]} vs {d}")
        opdop = op.conj().T @ op
        m += _kron(op, op.conj())
        m -= 0.5 * (_kron(opdop, eye) + _kron(eye, opdop.T))
    return m


@functools.lru_cache(maxsize=128)
def dissipator_norm(channels: tuple) -> float:
    """Infinity norm of ``dissipator_superop(channels)``; 0 without channels."""
    return float(np.linalg.norm(dissipator_superop(channels), np.inf)) if channels else 0.0


def liouvillian(hamiltonian, channels) -> np.ndarray:
    """Superoperator M with vec(drho/dt) = M vec(rho), row-major vec.

    The full d^2 x d^2 complex reference; ``evolve`` builds its real
    generator from H and the cached dissipator block instead.
    """
    h = as_square_matrix(hamiltonian, "hamiltonian")
    d = h.shape[0]
    # -i (H (x) I - I (x) H^T), written entry by entry into the 4-index view
    r = np.arange(d)
    m = np.zeros((d, d, d, d), dtype=complex)
    m[:, r, :, r] = -1j * h
    m[r, :, r, :] += 1j * h.T
    m = m.reshape(d * d, d * d)
    channels = tuple(channels)
    if channels:
        for ch in channels:
            if ch.dim != d:
                raise ValueError(
                    f"channel dim {ch.dim} does not match system dim {d}"
                )
        m += dissipator_superop(channels)
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


def _power_apply(r: np.ndarray, n: int, vec: np.ndarray) -> np.ndarray:
    """Compute r^n @ vec by binary powering."""
    result = vec
    base = r
    while n > 0:
        if n & 1:
            result = base @ result
        n >>= 1
        if n:
            base = base @ base
    return result


@functools.lru_cache(maxsize=256)
def _real_block(pattern: bytes, channels: tuple, support: bytes) -> tuple[np.ndarray, ...]:
    """Real coordinates on the vec(rho) entries a segment can reach.

    ``pattern`` is ``(H != 0).tobytes()`` and ``support`` is
    ``(vec != 0).tobytes()``. The support, closed under (i, j) -> (j, i), is
    closed under the nonzero pattern of H (x) I, I (x) H^T and the
    dissipator D, which contains M's pattern, so M maps the result into
    itself. The coordinates are Re rho_ii, then Re rho_ij and Im rho_ij for
    i < j (Havel, J. Math. Phys. 44, 534 (2003)). Returns the Hermitian basis
    ``E`` (k x d x d) with rho = sum_b x_b E_b, the positions ``read`` of the
    coordinates in ``vec.view(np.float64)`` and the dissipator's k x k real
    generator ``g_d``.
    """
    n = len(support)
    dim = math.isqrt(n)
    h = np.frombuffer(pattern, dtype=bool).reshape(dim, dim)
    eye = np.eye(dim, dtype=bool)
    dissipator = dissipator_superop(channels) if channels else np.zeros((n, n), dtype=complex)
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
    # einsum, not @: a BLAS product of this size starts OpenBLAS threads
    g_d = np.einsum("rs,bs->br", dissipator, basis).view(np.float64)[:, read].T.copy()
    basis = basis.reshape(k, dim, dim)
    for a in (basis, read, g_d):
        a.setflags(write=False)
    return basis, read, g_d


def evolve(
    rho0: DensityMatrix,
    segments,
    channels=(),
    dt_max: float = DEFAULT_DT_MAX,
    sample_dt: float | None = None,
) -> list[tuple[float, DensityMatrix]]:
    """Integrate the Lindblad equation through piecewise-constant segments.

    drho/dt = -i[H, rho] + sum_k (L_k rho L_k^dag - 1/2 {L_k^dag L_k, rho})

    Each segment is subdivided into fixed RK4 steps of size <= ``dt_max``
    and propagated in real coordinates on its invariant subspace (see the
    module docstring). The returned trajectory always includes the initial
    state and every segment boundary; ``sample_dt`` adds interior samples
    at roughly that spacing. The trace is never renormalized.

    Raises ``ValueError`` on dimension mismatches and ``FloatingPointError``
    when a returned state is not finite, not Hermitian, has lost its trace
    or its positivity.
    """
    if dt_max <= 0:
        raise ValueError(f"dt_max must be positive, got {dt_max}")
    channels = tuple(channels)
    dim = rho0.dim
    labels = rho0.basis_labels
    for ch in channels:
        if ch.dim != dim:
            raise ValueError(f"channel dim {ch.dim} != state dim {dim}")
    dissipation = dissipator_norm(channels)

    trajectory: list[tuple[float, DensityMatrix]] = [(0.0, rho0)]
    vec = np.ascontiguousarray(rho0.matrix.reshape(-1), dtype=complex)
    t = 0.0

    def emit(time: float, basis: np.ndarray, x: np.ndarray) -> np.ndarray:
        v = x @ basis.reshape(len(x), -1)
        v.setflags(write=False)
        m = v.reshape(dim, dim)
        if not np.isfinite(v).all():
            raise FloatingPointError(f"NaN/Inf in state at t = {time:.6g} us")
        if hermiticity_defect(m) > HERMITICITY_TOL:
            raise FloatingPointError(f"Hermiticity lost at t = {time:.6g} us")
        if abs(m.trace().real - 1.0) > TRACE_TOL:
            raise FloatingPointError(f"trace diverged at t = {time:.6g} us")
        if np.linalg.eigvalsh(m)[0] < -1e-6:
            raise FloatingPointError(f"positivity lost at t = {time:.6g} us")
        trajectory.append((time, DensityMatrix._trusted(m, labels)))
        return v

    for seg in segments:
        if seg.dim != dim:
            raise ValueError(f"segment dim {seg.dim} != state dim {dim}")
        if seg.duration == 0.0:
            trajectory.append((t, trajectory[-1][1]))
            continue
        # Stiff segments (a strong pair interaction, a fast decay) get finer
        # steps than dt_max, so that h*||H||inf and h*||D||inf stay small and
        # RK4 stays stable; the step bound requested by the caller still holds.
        rate = max(float(np.abs(seg.hamiltonian).sum(axis=1).max()), dissipation)
        h_cap = dt_max if rate == 0.0 else min(dt_max, STEP_NORM_PRODUCT / rate)
        n_steps = max(1, math.ceil(seg.duration / h_cap))
        h = seg.duration / n_steps
        ham = seg.hamiltonian
        basis, read, g_d = _real_block((ham != 0).tobytes(), channels, (vec != 0).tobytes())
        g_h = (-1j * (ham @ basis - basis @ ham)).reshape(len(read), -1).view(np.float64)[:, read]
        step = rk4_map(g_h.T + g_d, h)
        x = vec.view(np.float64)[read]
        chunk = n_steps if sample_dt is None else max(1, round(sample_dt / h))
        ends = [*range(chunk, n_steps, chunk), n_steps]
        for start, end in zip([0, *ends], ends):
            x = _power_apply(step, end - start, x)
            vec = emit(t + (seg.duration if end == n_steps else end * h), basis, x)
        t += seg.duration
    return trajectory
