//! Minimal fixed-layout serialization for message payloads.
//!
//! Messages between ranks are owned byte buffers. The [`Wire`] trait encodes
//! a value into a little-endian byte stream and decodes it back; it is
//! implemented here for the primitive types the workspace sends, and
//! downstream crates implement it for their own POD-like types (octants,
//! node keys, field chunks). A trait with explicit encode/decode keeps the
//! byte layout independent of Rust struct layout, so no `unsafe` casts are
//! needed anywhere in the transport.

/// A value that can be encoded to and decoded from a byte stream.
///
/// Encoding must be self-delimiting given the type: `decode` consumes
/// exactly the bytes `encode` produced. All provided impls are
/// little-endian and fixed-width.
pub trait Wire: Sized {
    /// Append this value's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decode one value from the front of `buf`, advancing the slice.
    ///
    /// Returns `None` if `buf` is too short or malformed.
    fn decode(buf: &mut &[u8]) -> Option<Self>;
}

macro_rules! impl_wire_prim {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            #[inline]
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn decode(buf: &mut &[u8]) -> Option<Self> {
                const N: usize = std::mem::size_of::<$t>();
                if buf.len() < N {
                    return None;
                }
                let (head, tail) = buf.split_at(N);
                *buf = tail;
                Some(<$t>::from_le_bytes(head.try_into().ok()?))
            }
        }
    )*};
}

impl_wire_prim!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128, f32, f64, usize, isize);

impl Wire for bool {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    #[inline]
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let b = u8::decode(buf)?;
        Some(b != 0)
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn encode(&self, buf: &mut Vec<u8>) {
        for x in self {
            x.encode(buf);
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        // Decode into a Vec first to avoid requiring T: Default/Copy.
        let mut v = Vec::with_capacity(N);
        for _ in 0..N {
            v.push(T::decode(buf)?);
        }
        v.try_into().ok()
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }
}

impl<A: Wire, B: Wire, C: Wire, E: Wire> Wire for (A, B, C, E) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
        self.3.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some((
            A::decode(buf)?,
            B::decode(buf)?,
            C::decode(buf)?,
            E::decode(buf)?,
        ))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        for x in self {
            x.encode(buf);
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let n = u64::decode(buf)? as usize;
        let mut v = Vec::with_capacity(n.min(buf.len().max(16)));
        for _ in 0..n {
            v.push(T::decode(buf)?);
        }
        Some(v)
    }
}

/// A `u64` byte length, then the UTF-8 bytes.
impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let n = u64::decode(buf)? as usize;
        if buf.len() < n {
            return None;
        }
        let (head, tail) = buf.split_at(n);
        *buf = tail;
        String::from_utf8(head.to_vec()).ok()
    }
}

/// Encode a slice of values into a fresh buffer (without a length prefix).
///
/// The buffer is sized for `items.len()` values of `T`'s in-memory size,
/// which is the exact encoded size of every fixed-width primitive.
pub fn write_vec<T: Wire>(items: &[T]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(std::mem::size_of_val(items));
    for x in items {
        x.encode(&mut buf);
    }
    buf
}

// ----------------------------------------------------------------------
// CRC32 integrity framing
// ----------------------------------------------------------------------

/// The IEEE CRC32 lookup tables for slicing-by-8, built at compile time.
///
/// `CRC_TABLES[0]` is the classic byte-at-a-time table of the reflected
/// polynomial `0xEDB88320`. `CRC_TABLES[k][b]` is the CRC register after
/// byte `b` is followed by `k` zero bytes, so eight table lookups advance
/// the register over eight bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// IEEE CRC32 of a byte slice (the polynomial used by zip/zlib/ethernet).
///
/// Slicing-by-8: the register absorbs eight bytes per step through the
/// eight tables, then the tail byte by byte. The value is the
/// byte-at-a-time CRC's, so checksums stored on disk stay valid.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for b in &mut chunks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][b[4] as usize]
            ^ t[2][b[5] as usize]
            ^ t[1][b[6] as usize]
            ^ t[0][b[7] as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Size of the frame header prepended by [`frame`].
pub const FRAME_HEADER: usize = 4;

/// Wrap a payload in an integrity envelope: a 4-byte little-endian CRC32
/// of the payload, followed by the payload itself. Any single bit flip in
/// the envelope — header or payload — is detected by [`unframe`].
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FRAME_HEADER + payload.len());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Integrity failure detected by [`unframe`], position-only; the
/// communicator layer attributes it to a `(src, tag)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer is shorter than the frame header.
    TooShort(usize),
    /// Stored and recomputed CRC32 disagree.
    Crc {
        /// CRC stored in the header.
        expected: u32,
        /// CRC recomputed over the payload.
        actual: u32,
    },
}

/// Validate and strip the envelope added by [`frame`], returning the
/// payload bytes.
pub fn unframe(buf: &[u8]) -> Result<&[u8], FrameError> {
    if buf.len() < FRAME_HEADER {
        return Err(FrameError::TooShort(buf.len()));
    }
    let (head, payload) = buf.split_at(FRAME_HEADER);
    let expected = u32::from_le_bytes(head.try_into().unwrap());
    let actual = crc32(payload);
    if expected != actual {
        return Err(FrameError::Crc { expected, actual });
    }
    Ok(payload)
}

/// A capacity for decoding `buf` as values of `T`: exact for the
/// fixed-width primitives, whose encoding is their in-memory size, and
/// never more memory than `buf` itself.
fn capacity_hint<T>(buf: &[u8]) -> usize {
    buf.len() / std::mem::size_of::<T>().max(1)
}

/// Decode a whole buffer (produced by [`write_vec`]) as consecutive values.
///
/// Panics if the buffer does not decode cleanly to an integral number of
/// items — inside the SPMD harness a malformed message is a program bug,
/// not a recoverable condition.
pub fn read_vec<T: Wire>(mut buf: &[u8]) -> Vec<T> {
    let mut v = Vec::with_capacity(capacity_hint::<T>(buf));
    while !buf.is_empty() {
        let item =
            T::decode(&mut buf).expect("malformed wire buffer: trailing bytes do not decode");
        v.push(item);
    }
    v
}

/// Fallible variant of [`read_vec`]: `None` if the buffer does not decode
/// cleanly to an integral number of items.
pub fn try_read_vec<T: Wire>(mut buf: &[u8]) -> Option<Vec<T>> {
    let mut v = Vec::with_capacity(capacity_hint::<T>(buf));
    while !buf.is_empty() {
        v.push(T::decode(&mut buf)?);
    }
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(x: T) {
        let mut buf = Vec::new();
        x.encode(&mut buf);
        let mut s = buf.as_slice();
        let y = T::decode(&mut s).unwrap();
        assert_eq!(x, y);
        assert!(s.is_empty(), "decode must consume exactly the encoding");
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u32::MAX);
        roundtrip(-1i64);
        roundtrip(3.5f64);
        roundtrip(f32::NEG_INFINITY);
        roundtrip(true);
        roundtrip(false);
        roundtrip(usize::MAX);
    }

    #[test]
    fn composites_roundtrip() {
        roundtrip([1u32, 2, 3]);
        roundtrip((7u8, -9i32));
        roundtrip((1u64, 2.5f64, 3u8));
        roundtrip(vec![1.0f64, -2.0, 3.0]);
        roundtrip(Vec::<u32>::new());
        roundtrip(vec![vec![1u8], vec![], vec![2, 3]]);
        roundtrip((String::from("rk.stage é"), 1.5f64));
        roundtrip(String::new());
    }

    #[test]
    fn write_read_vec_roundtrip() {
        let xs = vec![(1u32, 2u64), (3, 4), (5, 6)];
        let buf = write_vec(&xs);
        let ys: Vec<(u32, u64)> = read_vec(&buf);
        assert_eq!(xs, ys);
    }

    #[test]
    fn decode_short_buffer_is_none() {
        let mut s: &[u8] = &[1, 2, 3];
        assert!(u64::decode(&mut s).is_none());
    }

    #[test]
    #[should_panic(expected = "malformed wire buffer")]
    fn read_vec_trailing_garbage_panics() {
        let mut buf = write_vec(&[1u64, 2]);
        buf.push(0xFF);
        let _: Vec<u64> = read_vec(&buf);
    }

    #[test]
    fn try_read_vec_reports_trailing_garbage() {
        let mut buf = write_vec(&[1u64, 2]);
        assert_eq!(try_read_vec::<u64>(&buf), Some(vec![1, 2]));
        buf.push(0xFF);
        assert_eq!(try_read_vec::<u64>(&buf), None);
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The textbook bitwise CRC32, one shift per bit, independent of the
    /// lookup tables.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    /// The sliced CRC is the byte-at-a-time CRC: at every length that
    /// exercises the eight-byte body and the tail, at every misaligned
    /// start, and on a large buffer.
    #[test]
    fn sliced_crc32_is_the_bytewise_crc32() {
        let mut rng = SplitMix64(0xC3C3_2024);
        let data: Vec<u8> = (0..(1 << 20) + 7).map(|_| rng.next() as u8).collect();
        for len in 0..=64 {
            for off in 0..8 {
                let s = &data[off..off + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "len {len} offset {off}");
            }
        }
        for off in [0, 3, 7] {
            let s = &data[off..off + (1 << 20)];
            assert_eq!(crc32(s), crc32_bitwise(s), "1 MiB at offset {off}");
        }
    }

    #[test]
    fn frame_roundtrip_and_rejection() {
        let payload = write_vec(&[3u64, 1, 4, 1, 5]);
        let framed = frame(&payload);
        assert_eq!(unframe(&framed).unwrap(), payload.as_slice());
        // Too short to carry a header.
        assert_eq!(unframe(&framed[..3]), Err(FrameError::TooShort(3)));
        // Every single-bit flip anywhere in the envelope is detected.
        for byte in 0..framed.len() {
            for bit in 0..8 {
                let mut bad = framed.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    matches!(unframe(&bad), Err(FrameError::Crc { .. })),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    /// Tiny deterministic PRNG for the malformed-input sweeps (no external
    /// crates in this workspace).
    struct SplitMix64(u64);
    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Property: for any encoding, every strict prefix either decodes to a
    /// (shorter) value or returns `None` — never panics — and any single
    /// bit flip decodes without panicking.
    fn malformed_inputs_never_panic<T: Wire>(mk: impl Fn(&mut SplitMix64) -> T) {
        let mut rng = SplitMix64(0xDEAD_BEEF);
        for _ in 0..64 {
            let x = mk(&mut rng);
            let mut buf = Vec::new();
            x.encode(&mut buf);
            // Truncation at every split point.
            for cut in 0..buf.len() {
                let mut s = &buf[..cut];
                let _ = T::decode(&mut s); // must not panic
                let _ = try_read_vec::<T>(&buf[..cut]); // must not panic
            }
            // Random bit flips.
            if !buf.is_empty() {
                for _ in 0..16 {
                    let mut bad = buf.clone();
                    let pos = (rng.next() as usize) % bad.len();
                    bad[pos] ^= 1 << (rng.next() % 8);
                    let mut s = bad.as_slice();
                    let _ = T::decode(&mut s); // must not panic
                    let _ = try_read_vec::<T>(&bad); // must not panic
                }
            }
        }
    }

    #[test]
    fn malformed_primitives_never_panic() {
        malformed_inputs_never_panic(|r| r.next() as u8);
        malformed_inputs_never_panic(|r| r.next() as u16);
        malformed_inputs_never_panic(|r| r.next() as u32);
        malformed_inputs_never_panic(|r| r.next());
        malformed_inputs_never_panic(|r| r.next() as i64);
        malformed_inputs_never_panic(|r| f64::from_bits(r.next()));
        malformed_inputs_never_panic(|r| f32::from_bits(r.next() as u32));
        malformed_inputs_never_panic(|r| r.next() & 1 == 0);
        malformed_inputs_never_panic(|r| r.next() as usize);
    }

    #[test]
    fn malformed_composites_never_panic() {
        malformed_inputs_never_panic(|r| [r.next(), r.next(), r.next()]);
        malformed_inputs_never_panic(|r| (r.next() as u32, f64::from_bits(r.next())));
        malformed_inputs_never_panic(|r| (r.next(), r.next() as u8, r.next() as i32));
        malformed_inputs_never_panic(|r| {
            (r.next(), r.next() as u16, r.next() as u32, r.next() as i8)
        });
        malformed_inputs_never_panic(|r| {
            let n = (r.next() % 8) as usize;
            (0..n).map(|_| r.next()).collect::<Vec<u64>>()
        });
        malformed_inputs_never_panic(|r| {
            let n = (r.next() % 4) as usize;
            (0..n)
                .map(|_| {
                    let m = (r.next() % 4) as usize;
                    (0..m).map(|_| r.next() as u32).collect::<Vec<u32>>()
                })
                .collect::<Vec<Vec<u32>>>()
        });
    }

    #[test]
    fn huge_length_prefix_is_rejected_not_allocated() {
        // A Vec whose length prefix claims u64::MAX items must fail cleanly
        // (and not attempt the allocation).
        let mut buf = Vec::new();
        u64::MAX.encode(&mut buf);
        buf.extend_from_slice(&[0u8; 16]);
        assert_eq!(try_read_vec::<Vec<u64>>(&buf), None);
        let mut s = buf.as_slice();
        assert!(Vec::<u64>::decode(&mut s).is_none());
    }
}
