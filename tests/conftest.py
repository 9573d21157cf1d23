import numpy as np


def multiset_close(got, want, tol=1e-10) -> bool:
    """Compare complex multisets up to tol, robust to roundoff reordering.

    Plain lexicographic complex sorting mispairs conjugate eigenvalues whose
    real parts differ only by noise; sorting on rounded keys avoids that.
    """
    got = np.asarray(got, dtype=complex).reshape(-1)
    want = np.asarray(want, dtype=complex).reshape(-1)
    if got.shape != want.shape:
        return False
    key = lambda z: (np.round(z.real, 8), np.round(z.imag, 8))
    gs = sorted(got, key=key)
    ws = sorted(want, key=key)
    return max(abs(a - b) for a, b in zip(gs, ws)) <= tol


def full_tensor_coords(rep, samples, seed, margin):
    """The window coordinates (samples, r_h, r, r) of the seeded draw the
    pinned `corep_residual` values were recorded on: per sample a full
    (d, n, n) standard complex Gaussian, projected onto Bh (x) Bg (x) Bg."""
    from qazb.q2pair import interior_window

    g = rep.grid
    d, n = rep.h_dim, g.size
    Bg = interior_window(g, margin)
    Bh = rep.pair.window_or_identity()
    rng = np.random.default_rng(seed)
    coords = []
    for _ in range(samples):
        v = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
        v = (Bh.conj().T @ v.reshape(d, -1)).reshape((-1, n, n))
        coords.append((Bg.conj().T @ v) @ Bg.conj())
    return np.stack(coords)
