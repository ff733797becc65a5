"""Shared helpers for the test suite.

The helpers here are deliberately written from first principles (direct
linear solves, sign-change counting, explicit DFT sums) so that they act
as independent oracles for the library code rather than mirrors of it.
"""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"

# One line per acceptance criterion, filled in by tests/test_acceptance.py
# and echoed after the run summary so the lines survive output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def readme_blocks(language):
    """The bodies of the README's fenced blocks of `language`, in order."""
    return re.findall(r"^```%s\n(.*?)^```" % language, README.read_text(),
                      flags=re.M | re.S)


def run_cli(*argv):
    """In-process CLI invocation returning (status, stdout, stderr)."""
    from discretum.cli import main

    out, err = io.StringIO(), io.StringIO()
    status = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def dense_band_matrix(op):
    """Dense matrix of a Hermitian band OperatorMatrix, entry by entry:
    band k fills superdiagonal k and its conjugate subdiagonal k."""
    n = op.dimension
    mat = np.zeros((n, n), dtype=complex)
    for k, band in op.bands.items():
        for j, value in enumerate(band):
            mat[j, j + k] = value
            mat[j + k, j] = np.conj(value)
    return mat


def random_basis_matrix(rng, dim):
    """Draw a random, comfortably non-degenerate basis matrix (rows are vectors).

    Rejection-samples until |det| is well away from zero so that folding
    tests never operate near a numerically degenerate cell.
    """
    while True:
        mat = rng.uniform(-1.0, 1.0, size=(dim, dim))
        if abs(np.linalg.det(mat)) > 0.2:
            return mat


def zero_crossing_frequency(samples, dt):
    """Estimate the angular frequency of an oscillating sample train.

    Finds sign changes, linearly interpolates each crossing time, and uses
    the fact that successive zero crossings of a sinusoid are half a period
    apart.  Independent of any spectral machinery in the package.
    """
    s = np.asarray(samples, dtype=float)
    sign = np.signbit(s)
    idx = np.flatnonzero(sign[:-1] != sign[1:])
    if idx.size < 2:
        raise ValueError("not enough zero crossings to estimate a frequency")
    frac = s[idx] / (s[idx] - s[idx + 1])
    t_cross = (idx + frac) * dt
    return np.pi * (idx.size - 1) / (t_cross[-1] - t_cross[0])


def dft_kernel(n):
    """Explicit (N, N) DFT kernel exp(-2 pi i j l/N)/sqrt(N); rows orthonormal."""
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)


def dft_mode_weights(u):
    """Explicit O(N^2) discrete Fourier transform, orthonormal convention.

    Used to cross-check the package's FFT-based mode decomposition.
    """
    u = np.asarray(u, dtype=float)
    return dft_kernel(u.size) @ u


def accelerations(state):
    """(kappa/m)*(u_{l+1} - 2 u_l + u_{l-1}) with periodic neighbours."""
    u = state.u
    return (state.params.kappa / state.params.m) * (
        np.roll(u, -1) - 2.0 * u + np.roll(u, 1))


def action_quantum_from_frequency(m, omega, a):
    """The chain's action quantum m*omega*a^2; equals m*c*a when omega = c/a."""
    return m * omega * a**2
