import numpy as np
import pytest
from hypothesis import strategies as st

import stokescontour as sc


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def sine_interface(m, amplitude=1.0, k=1):
    return sc.GraphInterface(h=amplitude * np.sin(k * sc.uniform_grid(m)))


def make_integrator(t_end, rel_tol=1e-6, abs_tol=1e-9, dt_init=1e-3, dt_max=0.02):
    return sc.IntegratorParams(
        t_end=t_end, rel_tol=rel_tol, abs_tol=abs_tol, dt_init=dt_init, dt_max=dt_max
    )


# hypothesis inputs for the right-hand-side properties: small grids and a
# few low Fourier modes, each mode an (a_k, b_k) pair of cos/sin amplitudes
grids = st.sampled_from([8, 16, 32, 48, 64])
modes = st.lists(
    st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)), min_size=1, max_size=6
)


def band_limited(m, coeffs):
    """sum_k a_k cos(k alpha) + b_k sin(k alpha) on m nodes, k = 1, 2, ..."""
    al = sc.uniform_grid(m)
    h = np.zeros(m)
    for k, (a, b) in enumerate(coeffs, start=1):
        h += a * np.cos(k * al) + b * np.sin(k * al)
    return h


def antiperiodic(h):
    """h on its first m/2 nodes, continued by h(alpha + pi) = -h(alpha) exactly."""
    half = h[: h.size // 2]
    return np.concatenate([half, -half])


def doubly_symmetric(h):
    """h on its nodes 1..m/4, continued exactly odd, h(-alpha) = -h(alpha), and
    antiperiodic, h(alpha + pi) = -h(alpha): 0 at the nodes 0 and m/2, node
    m/2 - n repeats node n."""
    m, q = h.size, h.size // 4
    out = np.zeros(m)
    out[1 : q + 1] = h[1 : q + 1]
    out[q + 1 : 2 * q] = out[q - 1 : 0 : -1]
    out[2 * q + 1 :] = -out[1 : 2 * q]
    return out


def bits(*arrays):
    """The arrays' float64 bit patterns, sign bits and NaN payloads included."""
    return [np.ascontiguousarray(a, dtype=np.float64).view(np.uint64) for a in arrays]
