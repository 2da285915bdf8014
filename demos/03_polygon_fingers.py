"""Growth of a polygonal finger: length up, curvature bounded.

The trapezoid-shaped initial profile rises into a long finger under the
unstable stratification. Its perimeter grows steadily while the maximal
curvature stays of the order of its initial (resolution-dependent) value.
The run uses the classical panel quadrature with the printed singular-cell
variant, whose O(d) cell defect slows the steepening. The accurate
`spectral_log` runs agree across m = 512-2048 up to t = 0.24; then the
interface overturns at alpha = 0 near t = 0.288, a real overturning past
which no graph can follow it, not a grid-scale mode. At m = 1024 the
printed cell's max slope at t = 0.3 is 47.6, which the accurate run reaches
at t ~ 0.277, and its L(0.3) moves 15.644 -> 15.717 -> 15.754 over
m = 512, 1024, 2048, at first order in the grid spacing.

Scaled-down version of the acceptance-scale run (m = 256 instead of
1024); takes about half a minute.
"""

import stokescontour as sc

m = 256
state = sc.GraphState(0.0, sc.GraphInterface(h=sc.preset_f1(m)))
params = sc.SchemeParams(
    sign_factor=-1.0, viscosity=1e-3, m=m,
    quadrature="taylor_cell", singular_cell_variant="printed",
)
ip = sc.IntegratorParams(t_end=0.3, rel_tol=1e-6, abs_tol=1e-9, dt_init=1e-3, dt_max=0.01)
samples = [round(0.03 * i, 10) for i in range(11)]

traj = sc.evolve(state, params, ip, samples,
                 options=sc.DiagnosticsOptions(compute_delta=False))
assert not traj.failed, traj.failure_message

print(f"{'t':>6} {'L':>8} {'Kmax':>8} {'E':>8} {'M':>6} {'csym':>9}")
for r in traj.records:
    print(f"{r.t:6.2f} {r.perimeter:8.3f} {r.max_curvature:8.2f} "
          f"{r.energy:8.3f} {r.max_height:6.3f} {r.central_sym_err:9.1e}")

L = [r.perimeter for r in traj.records]
K = [r.max_curvature for r in traj.records]
print(f"\nlength grew by {L[-1]/L[0]:.2f}x; curvature stayed within "
      f"{max(K[1:])/K[1]:.2f}x of its first post-initial value")
print("(the t = 0 discrete curvature of a polygon is resolution-dependent "
      "and excluded from the comparison)")
