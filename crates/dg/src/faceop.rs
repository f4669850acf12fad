//! Structured face operators: how one element reads a neighbour's face
//! trace.
//!
//! A face of a forest mesh relates two face lattices by discrete data
//! only: which tangential axis of the neighbour runs along which of
//! mine, in which direction (the inter-tree rotation of §II-D), and —
//! across a 2:1 face — which half of the coarse face the fine one covers
//! along each axis. A [`FaceOp`] is exactly that data, two bytes and an
//! option per face, and the operator it stands for is
//!
//! ```text
//!   op = (H[half[1]] ⊗ H[half[0]]) · P[orient]
//! ```
//!
//! `P` gathers the source lattice into the receiver's orientation (an
//! exact permutation: the LGL nodes are symmetric), `H[c]` is the 1-D
//! parent-to-child-`c` interpolation
//! ([`RefElement::interp_half`](crate::element::RefElement)), applied
//! along each tangential axis as a sum-factorised sweep only when `half`
//! is set: `O(np³)` per face where a dense face matrix costs `O(np⁴)`.
//! No face owns a matrix; the permutations and the two `H` factors live
//! once per mesh in [`FaceTables`], in the scalar tier of the engine
//! that applies them.

use crate::kernels::apply_axis_any;
use crate::matrix::Matrix;
use crate::real::Real;

/// Flip of the receiver's first tangential axis.
const FLIP0: u8 = 1;
/// Flip of the receiver's second tangential axis (3-D).
const FLIP1: u8 = 2;
/// The receiver's tangential axes are the source's, exchanged (3-D).
const SWAP: u8 = 4;

/// The operator taking a *source* face lattice to a *receiver* face
/// lattice (both lower tangential axis fastest), see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaceOp {
    /// Index into the orientation table: bit 0/1 = receiver axis 0/1
    /// runs against its source axis, bit 2 = axes exchanged. 2-D faces
    /// use bit 0 only.
    pub orient: u8,
    /// For a 2:1 face (receiver fine, source coarse): per receiver
    /// tangential axis, the half of the coarse face covered, counted in
    /// the receiver's direction. `None` for same-size faces.
    pub half: Option<[u8; 2]>,
}

impl FaceOp {
    /// Same lattice on both sides.
    pub const IDENTITY: FaceOp = FaceOp {
        orient: 0,
        half: None,
    };

    /// Compose the orientation index: `flip[k]` says receiver axis `k`
    /// runs against the source axis it coincides with; `swap` says that
    /// axis is the source's *other* tangential axis.
    pub fn orientation(flip: [bool; 2], swap: bool) -> u8 {
        u8::from(flip[0]) * FLIP0 + u8::from(flip[1]) * FLIP1 + u8::from(swap) * SWAP
    }

    /// `out = op · theirs` for a trace already in source lattice order.
    /// `scratch` and `out` hold one face (`npf` values).
    pub fn apply<R: Real>(
        &self,
        tab: &FaceTables<R>,
        dim: usize,
        theirs: &[R],
        scratch: &mut [R],
        out: &mut [R],
    ) {
        self.run(tab, dim, |c| theirs[c], scratch, out)
    }

    /// `out = op · (src[idx[·]])`: the source trace is read straight out
    /// of the storage it lives in — a neighbour's volume slab through
    /// its face node list, or a ghost's received trace through the
    /// halo's position list — with the orientation composed into the
    /// same gather, so no staging copy is made.
    pub fn apply_indexed<R: Real, I: Copy + Into<usize>>(
        &self,
        tab: &FaceTables<R>,
        dim: usize,
        src: &[R],
        idx: &[I],
        scratch: &mut [R],
        out: &mut [R],
    ) {
        self.run(tab, dim, |c| src[idx[c].into()], scratch, out)
    }

    fn run<R: Real>(
        &self,
        tab: &FaceTables<R>,
        dim: usize,
        source: impl Fn(usize) -> R,
        scratch: &mut [R],
        out: &mut [R],
    ) {
        let perm = tab.perm(dim, self.orient);
        let out = &mut out[..perm.len()];
        for (o, &c) in out.iter_mut().zip(perm) {
            *o = source(c as usize);
        }
        if let Some(half) = self.half {
            tab.sweep(dim, half, false, out, &mut scratch[..perm.len()]);
        }
    }

    /// `out = opᵀ · y`: the mortar lift. `y` lives on the receiver (fine)
    /// lattice, `out` on the source (coarse) lattice: two transposed
    /// sweeps, then the gather run backwards as a scatter (every source
    /// node is hit exactly once).
    pub fn apply_transpose<R: Real>(
        &self,
        tab: &FaceTables<R>,
        dim: usize,
        y: &[R],
        scratch: &mut [R],
        out: &mut [R],
    ) {
        let perm = tab.perm(dim, self.orient);
        let (scratch, out) = (&mut scratch[..perm.len()], &mut out[..perm.len()]);
        let swept: &[R] = match self.half {
            None => y,
            Some(half) => {
                scratch.copy_from_slice(y);
                tab.sweep(dim, half, true, scratch, out);
                scratch
            }
        };
        for (&v, &c) in swept.iter().zip(perm) {
            out[c as usize] = v;
        }
    }

    /// The operator as a dense `npf x npf` matrix (receiver rows, source
    /// columns). For the reference RHS paths and tests; no engine
    /// applies it.
    pub fn to_dense(&self, tab: &FaceTables<f64>, dim: usize) -> Matrix {
        let perm = tab.perm(dim, self.orient);
        let (np, npf) = (tab.np, perm.len());
        let mut m = Matrix::zeros(npf, npf);
        let Some(h) = self.half else {
            for (r, &c) in perm.iter().enumerate() {
                m.data[r * npf + c as usize] = 1.0;
            }
            return m;
        };
        let h0 = &tab.half[h[0] as usize];
        let h1 = &tab.half[h[1] as usize];
        for r in 0..npf {
            let (a0, a1) = (r % np, r / np);
            for (q, &c) in perm.iter().enumerate() {
                let (q0, q1) = (q % np, q / np);
                let along1 = if dim == 3 { h1[a1 * np + q1] } else { 1.0 };
                m.data[r * npf + c as usize] = along1 * h0[a0 * np + q0];
            }
        }
        m
    }
}

/// The per-mesh tables every [`FaceOp`] indexes, in scalar tier `R`:
/// the face-lattice permutations of all orientations and the two 1-D
/// half-interval interpolations with their transposes.
#[derive(Debug, Clone, Default)]
pub struct FaceTables<R> {
    np: usize,
    /// 2-D faces: `perm2[orient][a] = ` source node read at receiver `a`.
    perm2: [Vec<u16>; 2],
    /// 3-D faces: `perm3[orient][a1 * np + a0]`.
    perm3: [Vec<u16>; 8],
    /// `half[c]`: parent nodal values to child-`c` nodes, row-major.
    half: [Vec<R>; 2],
    /// Transposes of `half`.
    half_t: [Vec<R>; 2],
}

impl FaceTables<f64> {
    /// Tables of the `np`-point LGL lattice with the given half-interval
    /// interpolation matrices.
    pub fn new(np: usize, interp_half: &[Matrix; 2]) -> Self {
        let rev = |flip: bool, a: usize| if flip { np - 1 - a } else { a };
        let perm2 = [false, true].map(|flip| (0..np).map(|a| rev(flip, a) as u16).collect());
        let perm3 = std::array::from_fn(|orient| {
            let orient = orient as u8;
            let (f0, f1, swap) = (orient & FLIP0 != 0, orient & FLIP1 != 0, orient & SWAP != 0);
            (0..np * np)
                .map(|r| {
                    // Receiver axis k lands on source axis k (or the
                    // other one when swapped), possibly reversed.
                    let (along0, along1) = (rev(f0, r % np), rev(f1, r / np));
                    let (c0, c1) = if swap {
                        (along1, along0)
                    } else {
                        (along0, along1)
                    };
                    (c1 * np + c0) as u16
                })
                .collect()
        });
        FaceTables {
            np,
            perm2,
            perm3,
            half: [interp_half[0].data.clone(), interp_half[1].data.clone()],
            half_t: [
                interp_half[0].transpose().data,
                interp_half[1].transpose().data,
            ],
        }
    }

    /// The same tables in scalar tier `S` (the device tier's f32 copy).
    pub fn cast<S: Real>(&self) -> FaceTables<S> {
        let tier = |m: &Vec<f64>| m.iter().map(|&x| S::from_f64(x)).collect();
        FaceTables {
            np: self.np,
            perm2: self.perm2.clone(),
            perm3: self.perm3.clone(),
            half: [tier(&self.half[0]), tier(&self.half[1])],
            half_t: [tier(&self.half_t[0]), tier(&self.half_t[1])],
        }
    }
}

impl<R: Real> FaceTables<R> {
    /// Source lattice index read at each receiver lattice index of a
    /// `dim`-dimensional element's face under orientation `orient`.
    pub fn perm(&self, dim: usize, orient: u8) -> &[u16] {
        if dim == 2 {
            &self.perm2[orient as usize]
        } else {
            &self.perm3[orient as usize]
        }
    }

    /// Heap bytes held.
    pub fn heap_bytes(&self) -> usize {
        let perms = self.perm2.iter().chain(&self.perm3);
        let ops = self.half.iter().chain(&self.half_t);
        perms.map(|p| p.len() * 2).sum::<usize>()
            + ops.map(|m| m.len() * size_of::<R>()).sum::<usize>()
    }

    /// `x ← (H[half[1]] ⊗ H[half[0]]) x` in place on the face lattice of
    /// a `dim`-dimensional element, or the transposed factors when
    /// `transposed`; `tmp` holds one face. The two factors are the volume
    /// engine's axis sweeps over a `dim - 1`-dimensional lattice, so at
    /// the production degrees both run with compile-time trip counts.
    fn sweep(&self, dim: usize, half: [u8; 2], transposed: bool, x: &mut [R], tmp: &mut [R]) {
        let np = self.np;
        let m = if transposed { &self.half_t } else { &self.half };
        let (h0, h1) = (half[0] as usize, half[1] as usize);
        if dim == 2 {
            tmp.copy_from_slice(x);
            return apply_axis_any(&m[h0], np, np, 1, 0, tmp, x);
        }
        apply_axis_any(&m[h0], np, np, 2, 0, x, tmp);
        apply_axis_any(&m[h1], np, np, 2, 1, tmp, x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::RefElement;

    /// Every `orient x half` combination of a `dim`-dimensional face.
    fn all_ops(dim: usize) -> Vec<FaceOp> {
        let orients = if dim == 2 { 2u8 } else { 8 };
        let halves: Vec<Option<[u8; 2]>> = if dim == 2 {
            vec![None, Some([0, 0]), Some([1, 0])]
        } else {
            vec![None, Some([0, 0]), Some([1, 0]), Some([0, 1]), Some([1, 1])]
        };
        (0..orients)
            .flat_map(|orient| halves.iter().map(move |&half| FaceOp { orient, half }))
            .collect()
    }

    fn synth<R: Real>(n: usize, salt: usize) -> Vec<R> {
        (0..n)
            .map(|i| R::from_f64(((i * 7 + salt * 13) as f64 * 0.37).sin()))
            .collect()
    }

    /// `apply`, `apply_indexed` and `apply_transpose` against the dense
    /// matrix, and the adjoint identity `<op x, y> = <x, opᵀ y>`.
    fn check_tier<R: Real>(tol: f64) {
        for degree in 1..=7 {
            let re = RefElement::new(degree);
            let tab: FaceTables<R> = re.face_tables.cast();
            for dim in [2usize, 3] {
                let npf = re.nodes_per_face(dim);
                for op in all_ops(dim) {
                    let dense = op.to_dense(&re.face_tables, dim);
                    let x: Vec<R> = synth(npf, degree);
                    let y: Vec<R> = synth(npf, degree + 3);
                    let x64: Vec<f64> = x.iter().map(|v| v.to_f64()).collect();
                    let y64: Vec<f64> = y.iter().map(|v| v.to_f64()).collect();
                    let (mut s, mut ox, mut oty) =
                        (vec![R::ZERO; npf], vec![R::ZERO; npf], vec![R::ZERO; npf]);
                    op.apply(&tab, dim, &x, &mut s, &mut ox);
                    op.apply_transpose(&tab, dim, &y, &mut s, &mut oty);
                    let want = dense.matvec(&x64);
                    let want_t = dense.transpose().matvec(&y64);
                    for i in 0..npf {
                        assert!((ox[i].to_f64() - want[i]).abs() < tol, "{op:?} N={degree}");
                        assert!(
                            (oty[i].to_f64() - want_t[i]).abs() < tol,
                            "{op:?} N={degree}"
                        );
                    }
                    let lhs: f64 = ox.iter().zip(&y64).map(|(a, b)| a.to_f64() * b).sum();
                    let rhs: f64 = oty.iter().zip(&x64).map(|(a, b)| a.to_f64() * b).sum();
                    assert!((lhs - rhs).abs() < tol * npf as f64, "{op:?} N={degree}");

                    // The indexed form reads the same trace out of a
                    // larger slab.
                    let idx: Vec<u16> = (0..npf as u16).map(|i| 2 * i + 1).collect();
                    let mut slab = vec![R::ZERO; 2 * npf + 1];
                    for (i, &v) in x.iter().enumerate() {
                        slab[2 * i + 1] = v;
                    }
                    let mut oi = vec![R::ZERO; npf];
                    op.apply_indexed(&tab, dim, &slab, &idx, &mut s, &mut oi);
                    assert_eq!(
                        oi.iter().map(|v| v.to_f64().to_bits()).collect::<Vec<_>>(),
                        ox.iter().map(|v| v.to_f64().to_bits()).collect::<Vec<_>>(),
                    );
                }
            }
        }
    }

    #[test]
    fn apply_and_transpose_are_adjoint_f64() {
        check_tier::<f64>(1e-13);
    }

    #[test]
    fn apply_and_transpose_are_adjoint_f32() {
        check_tier::<f32>(2e-5);
    }

    #[test]
    fn same_size_operators_are_exact_permutations() {
        let re = RefElement::new(3);
        for dim in [2usize, 3] {
            let npf = re.nodes_per_face(dim);
            for op in all_ops(dim).into_iter().filter(|op| op.half.is_none()) {
                let x: Vec<f64> = synth(npf, 1);
                let (mut s, mut out) = (vec![0.0; npf], vec![0.0; npf]);
                op.apply(&re.face_tables, dim, &x, &mut s, &mut out);
                let mut sorted_in: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
                let mut sorted_out: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
                sorted_in.sort_unstable();
                sorted_out.sort_unstable();
                assert_eq!(sorted_in, sorted_out);
            }
        }
    }
}
