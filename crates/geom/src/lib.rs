//! # forust-geom — smooth geometry mappings and VTK output
//!
//! p4est computes all topology discretely; "smooth geometries are
//! represented by subjecting the octrees to diffeomorphic transformations
//! \[which\] p4est uses only for visualization, and to pass the geometry to
//! an external application (such as the PDE solver)" (paper §II-D). This
//! crate provides those transformations:
//!
//! - [`LatticeMap`]: the piecewise-trilinear embedding defined by the
//!   connectivity's corner lattice (bricks, rotated cubes, the Möbius
//!   strip's flat rendering);
//! - [`ShellMap`]: the cubed-sphere spherical-shell map used by the
//!   advection (§III-B) and mantle-convection (§IV-A) experiments;
//! - [`vtk`]: a minimal legacy-VTK unstructured writer for per-rank mesh
//!   and field dumps.

pub mod vtk;

use std::sync::Arc;

use forust::connectivity::{Connectivity, TreeId};
use forust::dim::{Dim, D3};
use forust::octant::Octant;

/// A diffeomorphic map from per-tree reference coordinates to physical
/// space. `xi` is in `[0, 1]^d` within the tree (z ignored in 2D).
pub trait Mapping<D: Dim>: Sync {
    /// Physical position of a reference point.
    fn map(&self, tree: TreeId, xi: [f64; 3]) -> [f64; 3];

    /// Jacobian `dx_i/dxi_j` of the map. The default uses central
    /// differences, adequate for benchmarks; override with the analytic
    /// derivative where accuracy matters.
    fn jacobian(&self, tree: TreeId, xi: [f64; 3]) -> [[f64; 3]; 3] {
        let h = 1e-6;
        let mut j = [[0.0; 3]; 3];
        for d in 0..D::DIM as usize {
            let mut lo = xi;
            let mut hi = xi;
            lo[d] = (xi[d] - h).max(0.0);
            hi[d] = (xi[d] + h).min(1.0);
            let plo = self.map(tree, lo);
            let phi = self.map(tree, hi);
            let dx = hi[d] - lo[d];
            for i in 0..3 {
                j[i][d] = (phi[i] - plo[i]) / dx;
            }
        }
        if D::DIM == 2 {
            j[2][2] = 1.0;
        }
        j
    }
}

/// Reference coordinates (in `[0, 1]^d`) of a point of an octant given by
/// per-axis fractions `frac` in `[0, 1]`.
pub fn octant_ref_coords<D: Dim>(o: &Octant<D>, frac: [f64; 3]) -> [f64; 3] {
    let big = D::root_len() as f64;
    let h = o.len() as f64;
    let c = o.coords();
    [
        (c[0] as f64 + frac[0] * h) / big,
        (c[1] as f64 + frac[1] * h) / big,
        if D::DIM == 3 {
            (c[2] as f64 + frac[2] * h) / big
        } else {
            0.0
        },
    ]
}

/// Piecewise-trilinear embedding through the connectivity's corner
/// lattice: each tree maps to the hexahedron (quadrilateral) spanned by
/// its corner positions.
pub struct LatticeMap<D: Dim> {
    conn: Arc<Connectivity<D>>,
}

impl<D: Dim> LatticeMap<D> {
    /// Build from the shared connectivity.
    pub fn new(conn: Arc<Connectivity<D>>) -> Self {
        LatticeMap { conn }
    }
}

/// Trilinear blend of the `2^d` corner positions of a tree.
fn corner_blend<D: Dim>(conn: &Connectivity<D>, tree: TreeId, xi: [f64; 3]) -> [f64; 3] {
    let mut out = [0.0f64; 3];
    for c in 0..D::CORNERS {
        let off = D::corner_offset(c);
        let mut w = 1.0;
        for d in 0..D::DIM as usize {
            w *= if off[d] == 1 { xi[d] } else { 1.0 - xi[d] };
        }
        let p = conn.corner_lattice(tree, c);
        for i in 0..3 {
            out[i] += w * p[i] as f64;
        }
    }
    out
}

impl<D: Dim> Mapping<D> for LatticeMap<D> {
    fn map(&self, tree: TreeId, xi: [f64; 3]) -> [f64; 3] {
        corner_blend(&self.conn, tree, xi)
    }

    fn jacobian(&self, tree: TreeId, xi: [f64; 3]) -> [[f64; 3]; 3] {
        // Analytic trilinear derivative.
        let mut j = [[0.0f64; 3]; 3];
        for c in 0..D::CORNERS {
            let off = D::corner_offset(c);
            let p = self.conn.corner_lattice(tree, c);
            for d in 0..D::DIM as usize {
                let mut w = if off[d] == 1 { 1.0 } else { -1.0 };
                for e in 0..D::DIM as usize {
                    if e != d {
                        w *= if off[e] == 1 { xi[e] } else { 1.0 - xi[e] };
                    }
                }
                for i in 0..3 {
                    j[i][d] += w * p[i] as f64;
                }
            }
        }
        if D::DIM == 2 {
            j[2][2] = 1.0;
        }
        j
    }
}

/// The spherical-shell map for the `cubed_sphere`/`shell24`
/// connectivities: the corner lattice lives on the cube surface at
/// infinity-norm radii 2 (inner) and 4 (outer); points are blended
/// trilinearly, projected radially onto the sphere, and scaled between
/// `r_inner` and `r_outer` — the "modified cubed sphere transformation"
/// of §IV-A.
pub struct ShellMap {
    conn: Arc<Connectivity<D3>>,
    /// Inner shell radius (e.g. Earth's core-mantle boundary).
    pub r_inner: f64,
    /// Outer shell radius (e.g. Earth's surface).
    pub r_outer: f64,
}

impl ShellMap {
    /// Build for a `cubed_sphere()` or `shell24()` connectivity.
    pub fn new(conn: Arc<Connectivity<D3>>, r_inner: f64, r_outer: f64) -> Self {
        assert!(r_inner > 0.0 && r_outer > r_inner);
        ShellMap {
            conn,
            r_inner,
            r_outer,
        }
    }
}

impl Mapping<D3> for ShellMap {
    fn map(&self, tree: TreeId, xi: [f64; 3]) -> [f64; 3] {
        let q = corner_blend(&self.conn, tree, xi);
        let linf = q[0].abs().max(q[1].abs()).max(q[2].abs());
        debug_assert!(linf > 0.0);
        // Radial parameter: lattice infinity-radius runs 2 (inner) -> 4
        // (outer).
        let s = (linf / 2.0 - 1.0).clamp(0.0, 1.0);
        let r = self.r_inner + s * (self.r_outer - self.r_inner);
        let l2 = (q[0] * q[0] + q[1] * q[1] + q[2] * q[2]).sqrt();
        [r * q[0] / l2, r * q[1] / l2, r * q[2] / l2]
    }
}

/// A smooth embedding of the five-quadtree Möbius strip in space:
/// tree `t`'s x axis runs along the loop, y across the strip; the strip
/// makes a half twist over the full circuit, matching the twisted gluing
/// of `builders::moebius()` (the y axis reverses across the seam, and so
/// does the transverse coordinate `w = y - 1/2` here).
pub struct MoebiusMap {
    /// Centerline radius.
    pub radius: f64,
    /// Strip half-width.
    pub half_width: f64,
    /// Number of trees around the loop (5 for `builders::moebius()`).
    pub num_trees: usize,
}

impl MoebiusMap {
    /// The standard map for `builders::moebius()`.
    pub fn new() -> Self {
        MoebiusMap {
            radius: 2.0,
            half_width: 0.5,
            num_trees: 5,
        }
    }
}

impl Default for MoebiusMap {
    fn default() -> Self {
        Self::new()
    }
}

impl Mapping<crate::D2Alias> for MoebiusMap {
    fn map(&self, tree: TreeId, xi: [f64; 3]) -> [f64; 3] {
        let n = self.num_trees as f64;
        let s = (tree as f64 + xi[0]) / n; // loop parameter in [0, 1)
        let theta = 2.0 * std::f64::consts::PI * s;
        let phi = 0.5 * theta; // half twist over the circuit
        let w = self.half_width * (2.0 * xi[1] - 1.0);
        let r = self.radius + w * phi.cos();
        [r * theta.cos(), r * theta.sin(), w * phi.sin()]
    }
}

/// Alias so the Möbius map can implement `Mapping<D2>` without importing
/// the dimension type at every call site.
pub type D2Alias = forust::dim::D2;

#[cfg(test)]
mod tests {
    use super::*;
    use forust::connectivity::builders;
    use forust::dim::D2;

    #[test]
    fn lattice_map_is_identity_on_unit_cube() {
        let m = LatticeMap::new(Arc::new(builders::unit3d()));
        for p in [[0.0, 0.0, 0.0], [0.5, 0.25, 1.0], [1.0, 1.0, 1.0]] {
            let x = m.map(0, p);
            for d in 0..3 {
                assert!((x[d] - p[d]).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn lattice_jacobian_matches_fd() {
        let m = LatticeMap::new(Arc::new(builders::rotcubes6()));
        for tree in 0..6 {
            let xi = [0.3, 0.6, 0.2];
            let ja = m.jacobian(tree, xi);
            // Default finite-difference path for comparison.
            struct Fd<'a>(&'a LatticeMap<forust::dim::D3>);
            impl Mapping<forust::dim::D3> for Fd<'_> {
                fn map(&self, t: TreeId, x: [f64; 3]) -> [f64; 3] {
                    self.0.map(t, x)
                }
            }
            let jf = Fd(&m).jacobian(tree, xi);
            for i in 0..3 {
                for j in 0..3 {
                    assert!(
                        (ja[i][j] - jf[i][j]).abs() < 1e-6,
                        "tree {tree} J[{i}][{j}]: {} vs {}",
                        ja[i][j],
                        jf[i][j]
                    );
                }
            }
        }
    }

    #[test]
    fn shell_map_radii() {
        let m = ShellMap::new(Arc::new(builders::shell24()), 0.55, 1.0);
        for tree in 0..24u32 {
            for &(zf, want_r) in &[(0.0, 0.55), (1.0, 1.0), (0.5, 0.775)] {
                let x = m.map(tree, [0.3, 0.7, zf]);
                let r = (x[0] * x[0] + x[1] * x[1] + x[2] * x[2]).sqrt();
                assert!(
                    (r - want_r).abs() < 1e-12,
                    "tree {tree} z={zf}: r={r} want {want_r}"
                );
            }
        }
    }

    #[test]
    fn shell_map_continuous_across_trees() {
        // A point on a shared macro-face must map identically from both
        // trees: take tree 0's +x face midpoint and its image.
        let conn = Arc::new(builders::cubed_sphere());
        let m = ShellMap::new(Arc::clone(&conn), 0.55, 1.0);
        for t in 0..6u32 {
            for f in 0..4usize {
                let Some(tr) = conn.face_transform(t, f) else {
                    continue;
                };
                let big = forust::dim::D3::root_len();
                // Probe three points on the face.
                for &(u, v) in &[(big / 2, big / 2), (big / 4, big / 2), (big / 8, big / 8)] {
                    let axis = f / 2;
                    let mut p = [u, u, u];
                    p[axis] = if f % 2 == 1 { big } else { 0 };
                    let t1 = (0..3).find(|&d| d != axis).unwrap();
                    let t2 = (0..3).rfind(|&d| d != axis).unwrap();
                    p[t1] = u;
                    p[t2] = v;
                    let q = tr.apply_point(p);
                    let xi = |p: [i32; 3]| {
                        [
                            p[0] as f64 / big as f64,
                            p[1] as f64 / big as f64,
                            p[2] as f64 / big as f64,
                        ]
                    };
                    let a = m.map(t, xi(p));
                    let b = m.map(tr.target, xi(q));
                    for d in 0..3 {
                        assert!(
                            (a[d] - b[d]).abs() < 1e-12,
                            "tree {t} face {f}: {a:?} vs {b:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn octant_ref_coords_normalized() {
        let o = Octant::<D2>::root().child(3).child(0);
        let lo = octant_ref_coords(&o, [0.0, 0.0, 0.0]);
        let hi = octant_ref_coords(&o, [1.0, 1.0, 0.0]);
        assert!((lo[0] - 0.5).abs() < 1e-15);
        assert!((hi[0] - 0.75).abs() < 1e-15);
        assert_eq!(lo[2], 0.0);
    }
}
