//! A PREM-like radial earth model.
//!
//! The paper adapts its seismic meshes "to the size of spatially-variable
//! wavelengths" of the Preliminary Reference Earth Model (PREM, paper ref.
//! \[44\]) and notes that "the mesh aligns with discontinuities in wave speed
//! present in the PREM model" (Fig. 8). The real PREM tables are not
//! shipped here; this module provides a piecewise-polynomial radial model
//! with the same structure — the major mantle discontinuities at the PREM
//! radii and comparable velocity ranges — which is what drives the
//! wavelength-based adaptation and the strong heterogeneity the
//! experiments measure. (Substitution documented in DESIGN.md §3.)
//!
//! Radii are normalized to the Earth radius (6371 km = 1.0); the shell
//! domain spans the mantle from the core–mantle boundary at 0.546 to the
//! surface.

/// Material at one point: density and elastic wave speeds (normalized
/// units: Earth radius = 1, and km/s kept as-is — only ratios matter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Material {
    /// Density (Mg/m^3).
    pub rho: f64,
    /// P-wave speed (km/s).
    pub vp: f64,
    /// S-wave speed (km/s).
    pub vs: f64,
}

impl Material {
    /// First Lamé parameter `lambda = rho (vp^2 - 2 vs^2)`.
    pub fn lambda(&self) -> f64 {
        self.rho * (self.vp * self.vp - 2.0 * self.vs * self.vs)
    }

    /// Shear modulus `mu = rho vs^2`.
    pub fn mu(&self) -> f64 {
        self.rho * self.vs * self.vs
    }
}

/// Normalized radius of the core–mantle boundary (3480/6371).
pub const R_CMB: f64 = 0.5462;
/// Normalized radius of the 660 km discontinuity.
pub const R_660: f64 = 0.8964;
/// Normalized radius of the 410 km discontinuity.
pub const R_410: f64 = 0.9356;
/// Normalized radius of the Moho (~24 km depth, PREM continental).
pub const R_MOHO: f64 = 0.9962;

/// Evaluate the PREM-like model at normalized radius `r` (clamped into
/// the mantle shell). Within each layer, speeds vary linearly with depth;
/// across the named discontinuities they jump, like PREM's.
pub fn prem_like(r: f64) -> Material {
    let r = r.clamp(R_CMB, 1.0);
    // Linear ramp helper: value at layer bottom -> top.
    let ramp = |lo_r: f64, hi_r: f64, lo_v: f64, hi_v: f64| -> f64 {
        lo_v + (hi_v - lo_v) * (r - lo_r) / (hi_r - lo_r)
    };
    if r < R_660 {
        // Lower mantle.
        Material {
            rho: ramp(R_CMB, R_660, 5.57, 4.38),
            vp: ramp(R_CMB, R_660, 13.72, 10.75),
            vs: ramp(R_CMB, R_660, 7.26, 5.95),
        }
    } else if r < R_410 {
        // Transition zone.
        Material {
            rho: ramp(R_660, R_410, 3.99, 3.54),
            vp: ramp(R_660, R_410, 10.27, 9.03),
            vs: ramp(R_660, R_410, 5.57, 4.87),
        }
    } else if r < R_MOHO {
        // Upper mantle.
        Material {
            rho: ramp(R_410, R_MOHO, 3.54, 3.38),
            vp: ramp(R_410, R_MOHO, 8.91, 7.90),
            vs: ramp(R_410, R_MOHO, 4.77, 4.40),
        }
    } else {
        // Crust.
        Material {
            rho: 2.90,
            vp: 6.80,
            vs: 3.90,
        }
    }
}

/// Evaluate the model at a Cartesian point.
pub fn prem_like_at(x: [f64; 3]) -> Material {
    let r = (x[0] * x[0] + x[1] * x[1] + x[2] * x[2]).sqrt();
    prem_like(r)
}

/// A homogeneous model (testing: plane waves have closed-form solutions).
pub fn homogeneous(rho: f64, vp: f64, vs: f64) -> impl Fn([f64; 3]) -> Material {
    move |_| Material { rho, vp, vs }
}

/// Ricker wavelet (second derivative of a Gaussian), peak frequency `f0`,
/// centered at `t0`.
pub fn ricker(t: f64, f0: f64, t0: f64) -> f64 {
    let a = std::f64::consts::PI * f0 * (t - t0);
    let a2 = a * a;
    (1.0 - 2.0 * a2) * (-a2).exp()
}

/// Closed-form monochromatic plane wave of the velocity–strain system in
/// a homogeneous medium — the absolute accuracy anchor for the f64
/// engine and the f32 device backend (DESIGN.md §7g).
///
/// A wave with unit propagation direction `k`, unit polarization `d` and
/// speed `c` carries velocity `v = −c d p(φ)` and strain
/// `E = sym(d ⊗ k) p(φ)` with phase `φ = k·x − c t` and profile
/// `p(φ) = amp · sin(2π φ / wavelen)`. Substituting into eqs. 3a/3b
/// shows this solves the system exactly when `c² = (λ+2μ)/ρ` and `d = k`
/// (P wave), or `c² = μ/ρ` and `d ⊥ k` (S wave). Returns the nine state
/// components in solver order `(vx, vy, vz, Exx, Eyy, Ezz, Eyz, Exz,
/// Exy)`.
pub fn plane_wave_state(
    k: [f64; 3],
    d: [f64; 3],
    c: f64,
    wavelen: f64,
    amp: f64,
    x: [f64; 3],
    t: f64,
) -> [f64; 9] {
    let phase = k[0] * x[0] + k[1] * x[1] + k[2] * x[2] - c * t;
    let p = amp * (2.0 * std::f64::consts::PI * phase / wavelen).sin();
    [
        -c * d[0] * p,
        -c * d[1] * p,
        -c * d[2] * p,
        d[0] * k[0] * p,
        d[1] * k[1] * p,
        d[2] * k[2] * p,
        0.5 * (d[1] * k[2] + d[2] * k[1]) * p,
        0.5 * (d[0] * k[2] + d[2] * k[0]) * p,
        0.5 * (d[0] * k[1] + d[1] * k[0]) * p,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discontinuities_jump() {
        let eps = 1e-9;
        for r in [R_660, R_410, R_MOHO] {
            let below = prem_like(r - eps);
            let above = prem_like(r + eps);
            assert!(
                (below.vp - above.vp).abs() > 0.1,
                "vp must jump at r={r}: {} vs {}",
                below.vp,
                above.vp
            );
            assert!(below.vs > above.vs, "vs decreases upward at r={r}");
        }
    }

    #[test]
    fn speeds_monotone_ranges() {
        // Deep mantle is fast; crust is slow.
        assert!(prem_like(R_CMB).vp > 13.0);
        assert!(prem_like(1.0).vp < 7.0);
        // vs < vp everywhere.
        for i in 0..100 {
            let r = R_CMB + (1.0 - R_CMB) * i as f64 / 99.0;
            let m = prem_like(r);
            assert!(m.vs < m.vp);
            assert!(m.rho > 0.0);
            assert!(m.lambda() > 0.0, "lambda positive at r={r}");
            assert!(m.mu() > 0.0);
        }
    }

    #[test]
    fn clamps_outside_shell() {
        assert_eq!(prem_like(0.1), prem_like(R_CMB));
        assert_eq!(prem_like(1.5), prem_like(1.0));
    }

    /// The closed form must satisfy the velocity–strain system: check
    /// `∂t v = (1/ρ) div σ` and `∂t E = sym grad v` by central
    /// differences, for both a P and an S wave.
    #[test]
    fn plane_wave_solves_velocity_strain_system() {
        let m = Material {
            rho: 1.3,
            vp: 1.9,
            vs: 1.1,
        };
        let (lam, mu) = (m.lambda(), m.mu());
        let s3 = 1.0 / 3.0f64.sqrt();
        let k = [s3, s3, s3];
        let s2 = 1.0 / 2.0f64.sqrt();
        let cases = [
            (k, k, m.vp),              // P: d parallel to k
            (k, [s2, -s2, 0.0], m.vs), // S: d orthogonal to k
        ];
        let (x0, t0, h) = ([0.31, -0.12, 0.44], 0.23, 1e-5);
        for (k, d, c) in cases {
            let q = |x: [f64; 3], t: f64| plane_wave_state(k, d, c, 0.7, 1e-3, x, t);
            let dt_q: Vec<f64> = (0..9)
                .map(|i| (q(x0, t0 + h)[i] - q(x0, t0 - h)[i]) / (2.0 * h))
                .collect();
            // Spatial derivatives of all components.
            let mut dx_q = [[0.0; 9]; 3];
            for (j, row) in dx_q.iter_mut().enumerate() {
                let mut xp = x0;
                let mut xm = x0;
                xp[j] += h;
                xm[j] -= h;
                let (qp, qm) = (q(xp, t0), q(xm, t0));
                for i in 0..9 {
                    row[i] = (qp[i] - qm[i]) / (2.0 * h);
                }
            }
            // Voigt stress gradient: sigma = lam tr(E) I + 2 mu E.
            let dsig = |j: usize, voigt: usize| -> f64 {
                let tr = dx_q[j][3] + dx_q[j][4] + dx_q[j][5];
                if voigt < 3 {
                    2.0 * mu * dx_q[j][3 + voigt] + lam * tr
                } else {
                    2.0 * mu * dx_q[j][3 + voigt]
                }
            };
            let div_sig = [
                dsig(0, 0) + dsig(1, 5) + dsig(2, 4),
                dsig(0, 5) + dsig(1, 1) + dsig(2, 3),
                dsig(0, 4) + dsig(1, 3) + dsig(2, 2),
            ];
            for i in 0..3 {
                assert!(
                    (dt_q[i] - div_sig[i] / m.rho).abs() < 1e-8,
                    "momentum eq violated (c={c}, comp {i})"
                );
            }
            let de = [
                dx_q[0][0],
                dx_q[1][1],
                dx_q[2][2],
                0.5 * (dx_q[2][1] + dx_q[1][2]),
                0.5 * (dx_q[2][0] + dx_q[0][2]),
                0.5 * (dx_q[1][0] + dx_q[0][1]),
            ];
            for i in 0..6 {
                assert!(
                    (dt_q[3 + i] - de[i]).abs() < 1e-8,
                    "strain eq violated (c={c}, comp {i})"
                );
            }
        }
    }

    #[test]
    fn ricker_properties() {
        // Peak value 1 at t0; decays away; integrates to ~0.
        assert!((ricker(0.5, 2.0, 0.5) - 1.0).abs() < 1e-12);
        assert!(ricker(5.0, 2.0, 0.5).abs() < 1e-10);
        let dt = 1e-3;
        let integral: f64 = (0..2000)
            .map(|i| ricker(i as f64 * dt, 2.0, 1.0) * dt)
            .sum();
        assert!(integral.abs() < 1e-6);
    }
}
