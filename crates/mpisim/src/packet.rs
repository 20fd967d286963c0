//! Edge message framing: the packing format an MPI program would put on
//! the wire for one tile edge.
//!
//! Layout (little-endian):
//!
//! ```text
//! u8      dims d
//! i64×d   consumer tile coordinates
//! i64×d   dependency offset δ
//! u32     payload cell count
//! T×count payload values (see [`crate::wire::Wire`])
//! ```
//!
//! The header goes value by value; the payload, which is nearly all of an
//! edge's bytes, is packed and unpacked as one slice.

use crate::wire::Wire;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use dpgen_runtime::EdgeMsg;
use dpgen_tiling::Coord;

/// Serialise an edge message to a wire packet: one buffer of the final
/// size, the header appended, the payload encoded in place.
pub fn encode<T: Wire>(msg: &EdgeMsg<T>) -> Bytes {
    let d = msg.tile.dims();
    debug_assert_eq!(d, msg.delta.dims());
    let header = 1 + 16 * d + 4;
    let len = header + msg.payload.len() * T::SIZE;
    let mut buf = BytesMut::with_capacity(len);
    buf.put_u8(d as u8);
    for &c in msg.tile.as_slice() {
        buf.put_i64_le(c);
    }
    for &c in msg.delta.as_slice() {
        buf.put_i64_le(c);
    }
    buf.put_u32_le(msg.payload.len() as u32);
    buf.resize(len, 0);
    T::encode_slice(&msg.payload, &mut buf[header..]);
    buf.freeze()
}

/// Deserialise a wire packet back into an edge message.
///
/// Panics on a malformed packet (framing bugs are programming errors in
/// this closed system, not recoverable input).
pub fn decode<T: Wire>(pkt: Bytes) -> EdgeMsg<T> {
    let mut buf = pkt.chunk();
    let d = buf.get_u8() as usize;
    let mut tile = Coord::zeros(d);
    for k in 0..d {
        tile.set(k, buf.get_i64_le());
    }
    let mut delta = Coord::zeros(d);
    for k in 0..d {
        delta.set(k, buf.get_i64_le());
    }
    let count = buf.get_u32_le() as usize;
    let payload = T::decode_slice(buf.take_bytes(count * T::SIZE));
    assert_eq!(buf.remaining(), 0, "trailing bytes in edge packet");
    EdgeMsg {
        tile,
        delta,
        payload,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn msg(tile: &[i64], delta: &[i64], payload: Vec<f64>) -> EdgeMsg<f64> {
        EdgeMsg {
            tile: Coord::from_slice(tile),
            delta: Coord::from_slice(delta),
            payload,
        }
    }

    #[test]
    fn roundtrip_simple() {
        let m = msg(&[3, -1, 4], &[1, 0, 0], vec![1.0, 2.5, -3.75]);
        let decoded: EdgeMsg<f64> = decode(encode(&m));
        assert_eq!(decoded, m);
    }

    #[test]
    fn roundtrip_empty_payload() {
        let m = msg(&[0, 0], &[0, 1], vec![]);
        let decoded: EdgeMsg<f64> = decode(encode(&m));
        assert_eq!(decoded, m);
    }

    #[test]
    fn packet_size_is_header_plus_payload() {
        let m = msg(&[1, 2], &[1, 0], vec![0.0; 10]);
        let packet = encode(&m);
        assert_eq!(packet.len(), 1 + 16 * 2 + 4 + 10 * 8);
    }

    #[test]
    #[should_panic(expected = "trailing bytes")]
    fn trailing_bytes_detected() {
        let m = msg(&[1], &[1], vec![1.0]);
        let mut raw = encode(&m).to_vec();
        raw.push(0xff);
        let _: EdgeMsg<f64> = decode(Bytes::from(raw));
    }

    #[test]
    #[should_panic(expected = "underrun")]
    fn a_short_payload_is_an_underrun() {
        let m = msg(&[1], &[1], vec![1.0, 2.0]);
        let mut raw = encode(&m).to_vec();
        raw.pop();
        let _: EdgeMsg<f64> = decode(Bytes::from(raw));
    }

    /// Encode, check the size, decode, and compare bit for bit.
    fn roundtrip_bits<T: Wire + PartialEq + std::fmt::Debug>(
        tile: &[i64],
        payload: Vec<T>,
    ) -> Result<(), TestCaseError> {
        let delta: Vec<i64> = tile.iter().map(|&c| c.signum()).collect();
        let m = EdgeMsg {
            tile: Coord::from_slice(tile),
            delta: Coord::from_slice(&delta),
            payload,
        };
        let packet = encode(&m);
        prop_assert_eq!(
            packet.len(),
            1 + 16 * tile.len() + 4 + m.payload.len() * T::SIZE
        );
        let decoded: EdgeMsg<T> = decode(packet);
        prop_assert_eq!(decoded, m);
        Ok(())
    }

    /// Payload lengths: always odd, so no type's payload is a whole
    /// number of 8- or 16-byte words.
    fn odd_len() -> impl Strategy<Value = usize> {
        (0usize..100).prop_map(|k| 2 * k + 1)
    }

    fn tiles() -> impl Strategy<Value = Vec<i64>> {
        proptest::collection::vec(-1000i64..1000, 1..=8)
    }

    proptest! {
        #[test]
        fn roundtrip_random(
            tile in tiles(),
            payload in proptest::collection::vec(-1e12f64..1e12, 0..200),
        ) {
            roundtrip_bits(&tile, payload)?;
        }

        #[test]
        fn roundtrip_f32_bits(
            tile in tiles(),
            payload in odd_len().prop_flat_map(|n| proptest::collection::vec(0u32..=u32::MAX, n)),
        ) {
            // Any bit pattern, NaNs included: compare the bits, not `==`.
            let vals: Vec<f32> = payload.iter().map(|&b| f32::from_bits(b)).collect();
            let delta: Vec<i64> = tile.iter().map(|&c| c.signum()).collect();
            let m = EdgeMsg {
                tile: Coord::from_slice(&tile),
                delta: Coord::from_slice(&delta),
                payload: vals,
            };
            let decoded: EdgeMsg<f32> = decode(encode(&m));
            let bits: Vec<u32> = decoded.payload.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(bits, payload);
            prop_assert_eq!(decoded.tile, m.tile);
            prop_assert_eq!(decoded.delta, m.delta);
        }

        #[test]
        fn roundtrip_i32(
            tile in tiles(),
            payload in odd_len().prop_flat_map(|n| proptest::collection::vec(i32::MIN..=i32::MAX, n)),
        ) {
            roundtrip_bits(&tile, payload)?;
        }

        #[test]
        fn roundtrip_u32(
            tile in tiles(),
            payload in odd_len().prop_flat_map(|n| proptest::collection::vec(0u32..=u32::MAX, n)),
        ) {
            roundtrip_bits(&tile, payload)?;
        }

        #[test]
        fn roundtrip_u64(
            tile in tiles(),
            payload in odd_len().prop_flat_map(|n| proptest::collection::vec(0u64..=u64::MAX, n)),
        ) {
            roundtrip_bits(&tile, payload)?;
        }

        #[test]
        fn roundtrip_i64(
            tile in tiles(),
            payload in odd_len().prop_flat_map(|n| proptest::collection::vec(i64::MIN..=i64::MAX, n)),
        ) {
            roundtrip_bits(&tile, payload)?;
        }
    }
}
