//! Low-storage explicit Runge–Kutta time integration.
//!
//! The paper integrates both the advection equation (§III-B) and the
//! seismic wave equations (§IV-B) with "an explicit five-stage fourth-order
//! Runge-Kutta method" — the Carpenter & Kennedy 2N-storage scheme
//! (paper ref. \[38\]). Only two registers per unknown are needed.

/// Carpenter–Kennedy RK4(5) 2N-storage coefficients.
pub const LSERK_A: [f64; 5] = [
    0.0,
    -567301805773.0 / 1357537059087.0,
    -2404267990393.0 / 2016746695238.0,
    -3550918686646.0 / 2091501179385.0,
    -1275806237668.0 / 842570457699.0,
];

/// Stage weights.
pub const LSERK_B: [f64; 5] = [
    1432997174477.0 / 9575080441755.0,
    5161836677717.0 / 13612068292357.0,
    1720146321549.0 / 2090206949498.0,
    3134564353537.0 / 4481467310338.0,
    2277821191437.0 / 14882151754819.0,
];

/// Stage times (fractions of the step).
pub const LSERK_C: [f64; 5] = [
    0.0,
    1432997174477.0 / 9575080441755.0,
    2526269341429.0 / 6820363962896.0,
    2006345519317.0 / 3224310063776.0,
    2802321613138.0 / 2924317926251.0,
];

/// Advance `u` by one step of size `dt`, with `rhs(t, u, out)` writing the
/// time derivative of `u` into `out`. `resid` is the 2N-storage register
/// and must have the same length as `u` (contents are overwritten).
pub fn lserk_step(
    u: &mut [f64],
    resid: &mut [f64],
    t: f64,
    dt: f64,
    mut rhs: impl FnMut(f64, &[f64], &mut [f64]),
) {
    assert_eq!(u.len(), resid.len());
    let mut k = vec![0.0; u.len()];
    resid.fill(0.0);
    for s in 0..5 {
        rhs(t + LSERK_C[s] * dt, u, &mut k);
        for i in 0..u.len() {
            resid[i] = LSERK_A[s] * resid[i] + dt * k[i];
            u[i] += LSERK_B[s] * resid[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourth_order_on_exponential() {
        // u' = u, u(0) = 1: error at t=1 must shrink ~16x per halving.
        let solve = |steps: usize| -> f64 {
            let mut u = vec![1.0];
            let mut r = vec![0.0];
            let dt = 1.0 / steps as f64;
            for s in 0..steps {
                lserk_step(&mut u, &mut r, s as f64 * dt, dt, |_, u, k| k[0] = u[0]);
            }
            (u[0] - std::f64::consts::E).abs()
        };
        let e1 = solve(20);
        let e2 = solve(40);
        let rate = (e1 / e2).log2();
        assert!(rate > 3.8, "observed order {rate}");
    }

    #[test]
    fn exact_for_cubic_in_time() {
        // u' = 3t^2 -> u = t^3 is integrated exactly by a 4th-order method.
        let mut u = vec![0.0];
        let mut r = vec![0.0];
        let dt = 0.25;
        for s in 0..4 {
            lserk_step(&mut u, &mut r, s as f64 * dt, dt, |t, _, k| {
                k[0] = 3.0 * t * t
            });
        }
        assert!((u[0] - 1.0).abs() < 1e-13);
    }

    #[test]
    fn oscillator_energy_drift_small() {
        // u'' = -u as a system; energy drift over one period is O(dt^4).
        let mut u = vec![1.0, 0.0]; // (position, velocity)
        let mut r = vec![0.0, 0.0];
        let steps = 200;
        let dt = 2.0 * std::f64::consts::PI / steps as f64;
        for s in 0..steps {
            lserk_step(&mut u, &mut r, s as f64 * dt, dt, |_, u, k| {
                k[0] = u[1];
                k[1] = -u[0];
            });
        }
        assert!((u[0] - 1.0).abs() < 1e-7);
        assert!(u[1].abs() < 1e-7);
    }
}
