//! Precision-generic scalar abstraction for the kernel engine.
//!
//! The paper's GPU port (dGea, Fig. 10) runs wave propagation in single
//! precision on the device while the octree and the reference solution stay
//! in double precision on the host. [`Real`] is the seam that makes the
//! sum-factorization engine, the face operators, the halo lane, the
//! stepper and the elastic element kernel generic over that choice: `f64`
//! is the bitwise-pinned default tier (every existing oracle suite keeps
//! passing unchanged, because monomorphizing the generic loop bodies at
//! `R = f64` produces the exact instructions the concrete code compiled
//! to), and `f32` is the device tier — the same code instantiated once
//! more, over demoted copies of the mesh data.
//!
//! The trait is deliberately tiny — arithmetic, a couple of transcendental
//! helpers the solvers need, and a little-endian wire codec used by the f32
//! halo path. Anything fancier (fused multiply-add, horizontal reductions)
//! is excluded on purpose: Rust never contracts `a * b + c` behind our
//! back, and keeping the op set minimal keeps the bitwise argument for the
//! f64 tier auditable.

use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Scalar type of a kernel tier: `f64` (host reference, bitwise-pinned) or
/// `f32` (device tier).
pub trait Real:
    Copy
    + Clone
    + Debug
    + Default
    + PartialOrd
    + PartialEq
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// One half (RK coefficients, averaging in penalty fluxes).
    const HALF: Self;
    /// Bytes per value in the little-endian wire format (8 for f64,
    /// 4 for f32 — the halved-halo-bytes contract of the device tier).
    const WIRE_BYTES: usize;

    /// Lossy conversion from the host's double-precision world.
    fn from_f64(x: f64) -> Self;
    /// Widening conversion back to f64 (exact for both tiers).
    fn to_f64(self) -> f64;
    /// Square root (impedance terms in the penalty flux).
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// IEEE maximum of two values.
    fn max(self, other: Self) -> Self;
    /// Finite check (flight-recorder style sanity assertions).
    fn is_finite(self) -> bool;
    /// Serialize as little-endian bytes into `out[..WIRE_BYTES]`.
    fn write_le(self, out: &mut [u8]);
    /// Deserialize from little-endian bytes in `buf[..WIRE_BYTES]`.
    fn read_le(buf: &[u8]) -> Self;
}

impl Real for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const HALF: Self = 0.5;
    const WIRE_BYTES: usize = 8;

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline(always)]
    fn write_le(self, out: &mut [u8]) {
        out[..8].copy_from_slice(&self.to_le_bytes());
    }
    #[inline(always)]
    fn read_le(buf: &[u8]) -> Self {
        f64::from_le_bytes(buf[..8].try_into().unwrap())
    }
}

impl Real for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const HALF: Self = 0.5;
    const WIRE_BYTES: usize = 4;

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    #[inline(always)]
    fn write_le(self, out: &mut [u8]) {
        out[..4].copy_from_slice(&self.to_le_bytes());
    }
    #[inline(always)]
    fn read_le(buf: &[u8]) -> Self {
        f32::from_le_bytes(buf[..4].try_into().unwrap())
    }
}

/// Capacity-reusing converting copy `dst ← f(src)`: `true` if `dst` had to
/// allocate. The one way a tier's copy of host data is (re)written.
pub fn refill<S, T>(dst: &mut Vec<T>, src: &[S], f: impl Fn(&S) -> T) -> bool {
    let grew = dst.capacity() < src.len();
    dst.clear();
    dst.extend(src.iter().map(f));
    grew
}

/// Demote an f64 operator (or any nodal table) to the `R` tier, into
/// `dst`'s allocation.
pub fn demote_slice<R: Real>(src: &[f64], dst: &mut Vec<R>) {
    refill(dst, src, |&x| R::from_f64(x));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_roundtrip_f32() {
        let mut buf = [0u8; 4];
        for x in [0.0f32, -1.5, 3.25e7, f32::MIN_POSITIVE, -0.0] {
            x.write_le(&mut buf);
            assert_eq!(<f32 as Real>::read_le(&buf).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn wire_roundtrip_f64() {
        let mut buf = [0u8; 8];
        for x in [0.0f64, -1.5, 3.25e7, f64::MIN_POSITIVE, -0.0] {
            x.write_le(&mut buf);
            assert_eq!(<f64 as Real>::read_le(&buf).to_bits(), x.to_bits());
        }
    }
}
