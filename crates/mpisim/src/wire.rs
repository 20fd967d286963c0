//! Byte-level value encoding for edge payloads.
//!
//! Mirrors what an MPI program does when it packs a tile edge into a typed
//! send buffer. Little-endian, fixed width per type. A payload is packed
//! and unpacked as a whole slice — one `to_le_bytes` / `from_le_bytes` per
//! value over `chunks_exact`, into a buffer sized once — never a value at
//! a time through a growing buffer.

/// Types that can travel in an edge payload.
pub trait Wire: Copy {
    /// Encoded size in bytes.
    const SIZE: usize;
    /// Encode `vals` into `dst`, which holds exactly `vals.len() * SIZE`
    /// bytes.
    fn encode_slice(vals: &[Self], dst: &mut [u8]);
    /// Decode every value of `src`, whose length is a multiple of `SIZE`.
    fn decode_slice(src: &[u8]) -> Vec<Self>;
}

macro_rules! impl_wire {
    ($($ty:ty),+ $(,)?) => {
        $(
            impl Wire for $ty {
                const SIZE: usize = std::mem::size_of::<$ty>();
                fn encode_slice(vals: &[Self], dst: &mut [u8]) {
                    assert_eq!(dst.len(), vals.len() * Self::SIZE, "encode buffer size");
                    for (out, v) in dst.chunks_exact_mut(Self::SIZE).zip(vals) {
                        out.copy_from_slice(&v.to_le_bytes());
                    }
                }
                fn decode_slice(src: &[u8]) -> Vec<Self> {
                    assert_eq!(src.len() % Self::SIZE, 0, "ragged payload");
                    src.chunks_exact(Self::SIZE)
                        .map(|c| <$ty>::from_le_bytes(c.try_into().expect("sized chunk")))
                        .collect()
                }
            }
        )+
    };
}

impl_wire!(f64, f32, u64, i64, u32, i32);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(vals: &[T]) {
        let mut buf = vec![0u8; vals.len() * T::SIZE];
        T::encode_slice(vals, &mut buf);
        assert_eq!(T::decode_slice(&buf), vals);
    }

    #[test]
    fn roundtrips() {
        roundtrip(&[0.0f64, -1.5, f64::MAX, f64::MIN_POSITIVE]);
        roundtrip(&[0.0f32, 3.25]);
        roundtrip(&[0u64, u64::MAX]);
        roundtrip(&[i64::MIN, -1, 0, i64::MAX]);
        roundtrip(&[0u32, u32::MAX]);
        roundtrip(&[i32::MIN, 7]);
        roundtrip::<f64>(&[]);
    }

    #[test]
    fn encoding_is_little_endian_per_value() {
        let mut buf = [0u8; 8];
        u32::encode_slice(&[0x0403_0201, 0x0807_0605], &mut buf);
        assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn nan_payloads_survive_bitwise() {
        // Two distinct NaNs: a quiet NaN with a payload and a signalling
        // one. Only their bits tell them apart, so compare the bits.
        let nans = [
            f64::from_bits(0x7ff8_0000_dead_beef),
            f64::from_bits(0xfff0_0000_0000_0001),
        ];
        let mut buf = [0u8; 16];
        f64::encode_slice(&nans, &mut buf);
        let back = f64::decode_slice(&buf);
        assert!(back.iter().all(|v| v.is_nan()));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&nans));
        let nan32 = [f32::from_bits(0x7fc0_1234), f32::from_bits(0xff80_0001)];
        let mut buf = [0u8; 8];
        f32::encode_slice(&nan32, &mut buf);
        let back: Vec<u32> = f32::decode_slice(&buf)
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(back, vec![0x7fc0_1234, 0xff80_0001]);
    }

    #[test]
    #[should_panic(expected = "encode buffer size")]
    fn a_missized_buffer_is_refused() {
        let mut buf = [0u8; 7];
        f64::encode_slice(&[1.0], &mut buf);
    }
}
