"""Causal time integration of (d/dt M0 + M1 + A) x = delta (x) M0 x0 + J f.

A system is described by a selfadjoint M0, an arbitrary bounded M1, a
skew-Hermitian A, and an input map J.  The solution theory asks the
coercivity constant of the time-weighted problem,

    c(nu) = lambda_min(nu M0 + Re M1),   Re M1 = (M1 + M1^H) / 2,

to be positive for all sufficiently large nu.  That forces M0 >= 0, and
then c(nu) is nondecreasing, so check_wellposed evaluates it once, at
nu_max.  The delta source carrying the initial state is realized by
starting the one-step scheme from x^0 = x0 (solutions vanish for t < 0).

Lowest eigenvalues are taken per connected component of the nonzero
pattern of M0 and Re M1, with one batched eigvalsh per component size.

Both time schemes are the theta-method with a per-step theta:

    (M0/tau + theta (M1+A)) x^{k+1}
        = (M0/tau - (1 - theta)(M1+A)) x^k + J f(t_k + theta tau).

theta = 1 is backward Euler and theta = 1/2 the implicit midpoint rule.
The algebraic rows hold at x_theta = (1 - theta) x^k + theta x^{k+1},
and with E = (1/2)<x|M0 x> every step satisfies

    E^k - E^{k+1} = tau <x_theta|Re M1 x_theta> - tau Re <x_theta|J f>
                    + (theta - 1/2) <dx|M0 dx>,   dx = x^{k+1} - x^k,

because A drops out of the real pairing; the last term, the numerical
dissipation, is zero for the midpoint rule and (1/2)<dx|M0 dx> >= 0
for backward Euler.  theta is the scheme's own, except that a midpoint
run on singular M0 (n_euler_init_steps) takes its first step with
theta = 1, which initializes the algebraic components consistently.

prepare certifies a system and inverts each distinct step matrix once,
every inverse before any right side and one step matrix at a time;
the plan's run steps through any number of source arrays in row blocks of
_ROWS steps, forming J f_k and testing the states once per block; the first
non-finite state names the step, with no numpy warning.  solve is prepare,
sample, run.  StepPlan.run's theta recursion is the only loop over steps;
every per-step check and source is an array kernel over Trajectory.x_theta.

The dtype follows the data (errors.as_array): a real system steps in
float64, and a complex matrix, source or state makes the run complex128.

Every theta-step is causal by construction; causality_defect measures this
numerically, testing the samples <= a in one masked comparison.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (HypothesisViolationError, ShapeMismatchError, StepOverflowError,
                     StepSingularityError, allocated, as_array, negligible, require_shape)

SCHEMES = ("backward_euler", "implicit_midpoint")
# steps per row block: level-3 products whose temporaries stay near 70 KB at dim 67
_ROWS = 64


def row_blocks(lo, hi):
    """(start, stop) of consecutive blocks of at most _ROWS rows covering range(lo, hi)."""
    return [(i, min(i + _ROWS, hi)) for i in range(lo, hi, _ROWS)]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, t_end] with exponential weight nu."""

    t_end: float
    n_steps: int
    nu: float = 1.0

    def __post_init__(self):
        for name, value in (("t_end", self.t_end), ("nu", self.nu)):
            if not 0 < value < np.inf:
                rule = "finite" if value > 0 else "positive"
                raise ValueError(f"{name} must be {rule}, got {value}")
        if not 1 <= self.n_steps < np.inf or int(self.n_steps) != self.n_steps:
            raise ValueError(f"n_steps must be a positive integer, got {self.n_steps}")

    @property
    def tau(self) -> float:
        return self.t_end / self.n_steps

    def times(self) -> np.ndarray:
        return allocated(np.linspace, 0.0, self.t_end, self.n_steps + 1)

    def sample_times(self, theta) -> np.ndarray:
        """Time t_k + theta_k tau at which step k samples its source."""
        return self.times()[:-1] + theta * self.tau


def _as_square(name, mat, n=None):
    mat = as_array(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeMismatchError(f"{name} must be square, got shape {mat.shape}")
    if n is not None and mat.shape[0] != n:
        raise ShapeMismatchError(f"{name} must be {n}x{n}, got {mat.shape}")
    # the tests that follow compare against tolerances, which NaN passes
    if not np.isfinite(mat).all():
        raise HypothesisViolationError(f"{name} is not finite")
    return mat


def _require_hermitian(M0) -> float:
    """Refuse a non-Hermitian M0; returns the scale max(1, max |M0_ij|)
    of the test."""
    if not negligible(M0 - M0.conj().T, M0):
        raise HypothesisViolationError("M0 is not Hermitian")
    return max(1.0, np.abs(M0).max())


@dataclass(frozen=True)
class EvolutionarySystem:
    """Matrices (M0, M1, A, J) of an evolutionary equation.

    M0 must be Hermitian, A skew-Hermitian and every matrix finite
    (checked on construction); J maps source samples into the state space.
    """

    M0: np.ndarray
    M1: np.ndarray
    A: np.ndarray
    J: np.ndarray

    def __post_init__(self):
        M0 = _as_square("M0", self.M0)
        n = M0.shape[0]
        M1 = _as_square("M1", self.M1, n)
        A = _as_square("A", self.A, n)
        J = as_array(self.J)
        if J.ndim == 1:
            J = J[:, None]
        if J.shape[0] != n:
            raise ShapeMismatchError(f"J must have {n} rows, got {J.shape}")
        if not np.isfinite(J).all():
            raise HypothesisViolationError("J is not finite")
        _require_hermitian(M0)
        if not negligible(A + A.conj().T, A):
            raise HypothesisViolationError("A is not skew-Hermitian")
        object.__setattr__(self, "M0", M0)
        object.__setattr__(self, "M1", M1)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "J", J)

    @property
    def dim(self) -> int:
        return self.M0.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.J.shape[1]

    def re_m1(self) -> np.ndarray:
        return 0.5 * (self.M1 + self.M1.conj().T)


@dataclass(frozen=True)
class Trajectory:
    """States x^0..x^n at grid.times() plus the source samples used.

    inputs[k] is the sample consumed by step k -> k+1, taken at
    sample_times()[k].  n_euler_init_steps counts the theta = 1 steps
    that start a midpoint run on singular M0; together with scheme it
    fixes theta, the per-step schedule (theta_steps).
    """

    grid: TimeGrid
    states: np.ndarray
    inputs: np.ndarray
    scheme: str
    n_euler_init_steps: int = 0

    def __post_init__(self):
        if self.states.shape[0] != self.grid.n_steps + 1:
            raise ShapeMismatchError("states must hold n_steps + 1 rows")
        if self.inputs.shape[0] != self.grid.n_steps:
            raise ShapeMismatchError("inputs must hold one sample per step")
        _require_scheme(self.scheme)
        if not 0 <= self.n_euler_init_steps <= self.grid.n_steps:
            raise ValueError(f"n_euler_init_steps must lie in [0, {self.grid.n_steps}], "
                             f"got {self.n_euler_init_steps}")

    @property
    def theta(self) -> np.ndarray:
        """theta of every step."""
        return theta_steps(self.scheme, self.grid.n_steps, self.n_euler_init_steps)

    def sample_times(self) -> np.ndarray:
        """Time at which each step samples its source."""
        return self.grid.sample_times(self.theta)

    def x_theta(self, lo, hi) -> np.ndarray:
        """The (hi - lo, dim) array of x_theta = (1 - theta_k) x^k + theta_k
        x^{k+1} of the steps lo <= k < hi, where the algebraic rows hold."""
        theta = self.theta[lo:hi, None]
        return (1.0 - theta) * self.states[lo:hi] + theta * self.states[lo + 1:hi + 1]


@dataclass(frozen=True)
class WellPosednessReport:
    """Well-posedness certificate of (M0, M1) at the largest weight.

    ok        whether M0 >= 0 and c > 0
    c         lambda_min(nu0 M0 + Re M1), or lambda_min(M0) when that is
              negative
    nu0       nu_max, the weight with the best constant on (0, nu_max]
    witness   eigenvector of the violated direction when not ok, from the
              lowest-index block (smallest first index) that attains c
    spectrum  the eigenvalues of M0 that the M0 >= 0 test read, m0_spectrum(M0, Re M1)
    """

    ok: bool
    c: float
    nu0: float
    witness: np.ndarray = field(default=None)
    spectrum: list = field(default=None)


def _blocks(*mats) -> list:
    """Ascending connected components of the nonzero pattern of mats, a (k, s) array per size s."""
    pattern = functools.reduce(np.logical_or, (mat != 0 for mat in mats))
    rows, cols = np.nonzero(pattern | pattern.T)
    nbrs = np.split(cols, np.searchsorted(rows, np.arange(1, len(pattern))))
    seen, by_size = set(), {}
    for root in range(len(pattern)):
        if root not in seen:
            stack, component = [root], {root}
            while stack:
                new = set(nbrs[stack.pop()].tolist()) - component
                component |= new
                stack += new
            seen |= component
            by_size.setdefault(len(component), []).append(sorted(component))
    return [np.array(by_size[size]) for size in sorted(by_size)]


def _stacks(mat, blocks) -> list:
    """The (k, s, s) stack of the diagonal blocks of mat for each size."""
    return [mat[idx[:, :, None], idx[:, None, :]] for idx in blocks]


def _lowest(stacks) -> tuple:
    """lambda_min over these diagonal blocks, and the lowest and all eigenvalues of each."""
    eigs = [np.linalg.eigvalsh(stack) for stack in stacks]
    lows = [block[:, 0] for block in eigs]
    return float(min(low.min() for low in lows)), lows, eigs


def _witness(stacks, blocks, lows, lam) -> np.ndarray:
    """Eigenvector for lam of the lowest-index block attaining it, in the full space."""
    _, g, r = min((idx[r, 0], g, r) for g, (idx, low) in enumerate(zip(blocks, lows))
                  for r in np.flatnonzero(low == lam))
    vec = np.zeros(sum(idx.size for idx in blocks), dtype=stacks[g].dtype)
    vec[blocks[g][r]] = np.linalg.eigh(stacks[g][r])[1][:, 0]
    return vec


def m0_spectrum(M0, *mats) -> list:
    """Eigenvalues of M0 per component of the pattern of M0 and mats, a (k, s) array per size."""
    return _lowest(_stacks(M0, _blocks(M0, *mats)))[2]


def c_min(M0, re_m1, nu) -> np.ndarray:
    """Coercivity constants lambda_min(nu M0 + Re M1), one per weight in nu."""
    blocks = _blocks(M0, re_m1)
    m0, m1 = _stacks(M0, blocks), _stacks(re_m1, blocks)
    return np.array([_lowest([w * a + b for a, b in zip(m0, m1)])[0] for w in np.ravel(nu)])


def check_wellposed(M0, M1, nu_max: float) -> WellPosednessReport:
    """Certify c = lambda_min(nu_max M0 + Re M1) > 0.

    Positivity at all large nu needs M0 >= 0; an M0 with a negative
    eigenvalue fails with that eigenvalue as c.  For M0 >= 0, c(nu) is
    nondecreasing, so nu_max gives the best constant.  The report
    carries the violating eigendirection when not ok, and m0_spectrum.
    """
    M0 = _as_square("M0", M0)
    M1 = _as_square("M1", M1, M0.shape[0])
    if not 0 < nu_max < np.inf:
        raise ValueError(f"nu_max must be {'finite' if nu_max > 0 else 'positive'}, got {nu_max}")
    scale0 = _require_hermitian(M0)
    re_m1 = 0.5 * (M1 + M1.conj().T)
    blocks = _blocks(M0, re_m1)
    m0 = _stacks(M0, blocks)
    lam0, lows, spectrum = _lowest(m0)
    if lam0 < -1e-12 * scale0:
        return WellPosednessReport(ok=False, c=lam0, nu0=nu_max,
                                   witness=_witness(m0, blocks, lows, lam0), spectrum=spectrum)
    stacks = [nu_max * a + b for a, b in zip(m0, _stacks(re_m1, blocks))]
    c, lows, _ = _lowest(stacks)
    witness = None if c > 0 else _witness(stacks, blocks, lows, c)
    return WellPosednessReport(ok=c > 0, c=c, nu0=nu_max, witness=witness, spectrum=spectrum)


def lu_factor(K):
    """Inverse of a step matrix K (np.linalg.inv: LAPACK ?gesv against the
    identity).  perfbench/tracing.py times this call by its name."""
    return np.linalg.inv(K)


def _factor_step_matrix(K, tau):
    """Inverse P of a step matrix K and its exact 1-norm condition number
    kappa_1 = |K|_1 |P|_1, refused when K is singular or kappa_1 is not
    <= 1e14 (so NaN or inf from an overflowing K is refused too).  K is not
    kept: the caller drops it before it forms the next step matrix.

    The residual bound of a step through P is kappa times that of an LU
    solve (Higham, Accuracy and Stability, sec. 14.1); the shipped
    presets form step matrices with kappa_1 below 1e4, so the ledger and
    the route gap stay at roundoff.  kappa_1 and kappa_2 agree within a
    factor dim.
    """
    try:
        P = lu_factor(K)
    except np.linalg.LinAlgError as exc:
        raise StepSingularityError("step matrix is singular", cond_estimate=np.inf) from exc
    cond = np.linalg.norm(K, 1) * np.linalg.norm(P, 1)
    if not cond <= 1e14:
        raise StepSingularityError(
            f"step matrix numerically singular (cond ~ {cond:.3e}) at tau = {tau}",
            cond_estimate=cond,
        )
    return P, cond


def sample_source(f, times, m) -> np.ndarray:
    """The (len(times), m) array of the samples f(t) in the dtype they promote
    to, zero when f is None; a sample of another shape than (m,) is refused.
    The samples are converted and checked once, stacked."""
    if f is None:
        return np.zeros((len(times), m))
    samples = [f(t) for t in times]
    try:
        out = as_array(samples)
    except ValueError:  # samples of different shapes do not stack
        out = np.empty(0)
    if out.shape not in ((len(times), m), (len(times),) * (m == 1)):  # (n,): scalar samples
        for sample in samples:
            if (np.shape(sample) or (1,)) != (m,):
                raise ShapeMismatchError(f"input sampler returned shape "
                                         f"{np.shape(sample) or (1,)}, expected ({m},)")
        out = as_array([np.reshape(sample, m) for sample in samples])  # scalars beside (1,)s
    return out.reshape(len(times), m)


def _require_scheme(scheme):
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")


def n_euler_init_steps(scheme, spectrum) -> int:
    """The singular-M0 rule: a midpoint run starts with one theta = 1 step when
    an eigenvalue of M0 (m0_spectrum) is at most 1e-12 max(1, largest) in modulus."""
    _require_scheme(scheme)
    if scheme != "implicit_midpoint":
        return 0
    eigs = np.abs(np.concatenate([block.ravel() for block in spectrum]))
    return int(eigs.min() <= 1e-12 * max(eigs.max(), 1.0))


def theta_steps(scheme, n_steps, n_init) -> np.ndarray:
    """theta of the n_steps steps of a scheme run whose first n_init steps take theta = 1."""
    theta = allocated(np.full, n_steps, 0.5 if scheme == "implicit_midpoint" else 1.0)
    theta[:n_init] = 1.0
    return theta


@dataclass(frozen=True)
class StepPlan:
    """A system prepared for one grid and scheme; theta and sample_times() derive
    from n_init as in Trajectory.  steps[theta] = (P, kappa, R) per distinct theta:
    P = K^-1, K = M0/tau + theta (M1+A), kappa = |K|_1 |P|_1, R = M0/tau - (1-theta)(M1+A).
    prepare makes every P first, one K and one inverse workspace at a time,
    then every R; no K is kept."""

    sys: EvolutionarySystem
    grid: TimeGrid
    scheme: str
    n_init: int
    report: WellPosednessReport
    steps: dict

    @property
    def theta(self) -> np.ndarray:
        return theta_steps(self.scheme, self.grid.n_steps, self.n_init)

    def sample_times(self) -> np.ndarray:
        return self.grid.sample_times(self.theta)

    def run(self, x0, F) -> Trajectory:
        """Step from x^0 = x0 (the zero state when None) through the (n_steps,
        n_inputs) source samples F; a step whose right side is not finite raises
        StepOverflowError, a ValueError, naming it.  The states take the dtype
        that x0, F, J and every P and R promote to."""
        sys, n_steps = self.sys, self.grid.n_steps
        x0 = require_shape(x0, (sys.dim,), "x0", default=np.zeros(sys.dim))
        F = require_shape(F, (n_steps, sys.n_inputs), "F")
        mats = [mat for P, _, R in self.steps.values() for mat in (P, R)]
        states = np.zeros((n_steps + 1, sys.dim), dtype=np.result_type(x0, F, sys.J, *mats))
        states[0] = x0
        theta, rhs, matmul = self.theta.tolist(), np.empty(sys.dim, states.dtype), np.matmul
        # a non-finite state is refused by its step's ValueError, not by numpy warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for lo, hi in row_blocks(0, n_steps):
                src = F[lo:hi] @ sys.J.T
                for k in range(lo, hi):
                    P, _, R = self.steps[theta[k]]
                    matmul(R, states[k], out=rhs)
                    rhs += src[k - lo]
                    matmul(P, rhs, out=states[k + 1])
                finite = np.isfinite(states[lo:hi + 1]).all(axis=1)
                if not finite.all():
                    # x^s is the first non-finite state (x^0 names step 0), so the
                    # right sides before step s - 1 were finite; when that of step
                    # s - 1 is finite too, P carried it past the largest float and
                    # step s's is not, unless s = n_steps and no step follows
                    s = lo + int(finite.argmin())
                    if s and not np.isfinite(self.steps[theta[s - 1]][2] @ states[s - 1]
                                             + src[s - 1 - lo]).all():
                        s -= 1
                    if s < n_steps:
                        raise StepOverflowError("array must not contain infs or NaNs: "
                                                f"the right side of step {s}")
        return Trajectory(self.grid, states, F, self.scheme, self.n_init)


def _with_m1a(op, c, sys, tau, m0_tau=None):
    """op(M0/tau, c (M1 + A)) formed in one new array of the dtype of M0, M1
    and A together, with no M1 + A beside it.  The sum and the product by c
    are taken in M1 + A's own dtype (in the real part when only M0 is
    complex), so every bit, signed zeros included, is that of the expression
    evaluated term by term.  M0/tau is m0_tau when given, else it is divided
    after the array is allocated, so that with glibc's malloc, which fills a
    free chunk that fits before it grows the heap, the quotient is freed at
    the top of the heap and each step matrix leaves its slot below the
    inverses made after it."""
    out = np.zeros(sys.M0.shape, np.result_type(sys.M0, sys.M1, sys.A))
    part = out if np.result_type(sys.M1, sys.A) == out.dtype else out.real
    np.add(sys.M1, sys.A, out=part)
    np.multiply(c, part, out=part)
    return op(sys.M0 / tau if m0_tau is None else m0_tau, out, out=out)


def prepare(sys: EvolutionarySystem, grid: TimeGrid, scheme: str) -> StepPlan:
    """Certify the system at nu_max = 1/tau (warning when that fails), invert
    the step matrix of each distinct theta once, and only then form the right
    sides.  Each step matrix is formed in place and dropped after its
    inversion, so one step matrix and one inverse workspace are alive at a
    time, beside the inverses made before.  M0/tau is computed once for all
    right sides and takes the slot the last step matrix left, so that the
    inverses and the right sides lie together at the top of the heap, where
    the memory returns to the system when the plan is dropped."""
    tau = grid.tau
    report = check_wellposed(sys.M0, sys.M1, nu_max=1.0 / tau)
    if not report.ok:
        warnings.warn("system not certified well-posed for any nu <= 1/tau "
                      f"(best c = {report.c:.3e}); proceeding", RuntimeWarning)
    n_init = n_euler_init_steps(scheme, report.spectrum)
    thetas = sorted(set(theta_steps(scheme, grid.n_steps, n_init).tolist()))
    inverses = [_factor_step_matrix(_with_m1a(np.add, th, sys, tau), tau) for th in thetas]
    m0_tau = sys.M0 / tau
    steps = {th: (*inverse, _with_m1a(np.subtract, 1.0 - th, sys, tau, m0_tau))
             for th, inverse in zip(thetas, inverses)}
    return StepPlan(sys, grid, scheme, n_init, report, steps)


def solve(sys: EvolutionarySystem, x0, f, grid: TimeGrid, scheme: str) -> Trajectory:
    """Integrate the system from x^0 = x0 (the zero state when None; a
    ControlSystem passes its stored sys.x0) with the chosen scheme.  f is a
    callable t -> source sample (length n_inputs) or None for a source-free
    run, evaluated at the plan's sample times before the first step."""
    plan = prepare(sys, grid, scheme)
    return plan.run(x0, sample_source(f, plan.sample_times(), sys.n_inputs))


def causality_defect(sys, f1, f2, a: float, grid: TimeGrid, scheme: str, x0=None) -> float:
    """Maximum deviation of the two solutions on grid times <= a.

    Requires f1 and f2 to agree at every sample time <= a (the
    violating sample is reported otherwise); the initial state x0 (zero
    when None) is shared.
    """
    plan = prepare(sys, grid, scheme)
    times = plan.sample_times()
    t1, t2 = (plan.run(x0, sample_source(f, times, sys.n_inputs)) for f in (f1, f2))
    a_tol = a + 1e-12 * max(1.0, a)
    # initial=0.0: the maximum over no inputs (J with no columns) or no times (a < 0) is 0
    scale = 1e-13 * np.maximum(1.0, np.abs(t1.inputs).max(axis=1, initial=0.0))
    bad = times[(times <= a_tol) & (np.abs(t1.inputs - t2.inputs).max(axis=1, initial=0.0) > scale)]
    if bad.size:
        raise HypothesisViolationError(f"inputs differ at sample t = {bad[0]:.6g} <= a = {a:.6g}")
    mask = grid.times() <= a_tol
    return float(np.abs(t1.states[mask] - t2.states[mask]).max(initial=0.0))
