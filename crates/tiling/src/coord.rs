//! Small fixed-capacity coordinate vectors.
//!
//! Tile indices are used as hash-map keys on the scheduler's hot path, so
//! they are stored inline (no heap allocation) in a fixed `[i64; MAX_DIMS]`
//! array. The paper's largest problem is the 6-dimensional 2-arm bandit with
//! delay; `MAX_DIMS = 8` leaves headroom.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Index;

/// Maximum number of problem dimensions supported by [`Coord`].
pub const MAX_DIMS: usize = 8;

/// An inline, fixed-capacity vector of up to [`MAX_DIMS`] `i64` coordinates.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Coord {
    len: u8,
    vals: [i64; MAX_DIMS],
}

impl Coord {
    /// Zero coordinate of the given dimension. Panics if `dims > MAX_DIMS`.
    pub fn zeros(dims: usize) -> Coord {
        assert!(dims <= MAX_DIMS, "at most {MAX_DIMS} dimensions supported");
        Coord {
            len: dims as u8,
            vals: [0; MAX_DIMS],
        }
    }

    /// Build from a slice. Panics if longer than `MAX_DIMS`.
    pub fn from_slice(v: &[i64]) -> Coord {
        let mut c = Coord::zeros(v.len());
        c.vals[..v.len()].copy_from_slice(v);
        c
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.len as usize
    }

    /// The coordinates as a slice.
    pub fn as_slice(&self) -> &[i64] {
        &self.vals[..self.len as usize]
    }

    /// Component-wise sum with `other` (same dims).
    pub fn add(&self, other: &Coord) -> Coord {
        debug_assert_eq!(self.len, other.len);
        let mut out = *self;
        for k in 0..self.dims() {
            out.vals[k] += other.vals[k];
        }
        out
    }

    /// Component-wise difference `self - other` (same dims).
    pub fn sub(&self, other: &Coord) -> Coord {
        debug_assert_eq!(self.len, other.len);
        let mut out = *self;
        for k in 0..self.dims() {
            out.vals[k] -= other.vals[k];
        }
        out
    }

    /// Set one component.
    pub fn set(&mut self, k: usize, v: i64) {
        assert!(k < self.dims());
        self.vals[k] = v;
    }

    /// Copy the coordinates into an `i128` buffer at the given column
    /// offsets (used to fill full-space evaluation points).
    pub fn write_to(&self, point: &mut [i128], cols: &[usize]) {
        debug_assert_eq!(cols.len(), self.dims());
        for (k, &col) in cols.iter().enumerate() {
            point[col] = self.vals[k] as i128;
        }
    }
}

impl Index<usize> for Coord {
    type Output = i64;
    fn index(&self, k: usize) -> &i64 {
        &self.as_slice()[k]
    }
}

impl Hash for Coord {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Fx-style multiplicative mix over the used components: tile
        // coordinates are tiny integers, and the default SipHash is
        // measurably slow on the scheduler hot path (see the Rust
        // Performance Book's Hashing chapter).
        const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        let mut h: u64 = self.len as u64;
        for &v in self.as_slice() {
            h = (h.rotate_left(5) ^ (v as u64)).wrapping_mul(K);
        }
        state.write_u64(h);
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (k, v) in self.as_slice().iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn construction_and_access() {
        let c = Coord::from_slice(&[3, -1, 4]);
        assert_eq!(c.dims(), 3);
        assert_eq!(c.as_slice(), &[3, -1, 4]);
        assert_eq!(c[0], 3);
        assert_eq!(c[2], 4);
        assert_eq!(Coord::zeros(2).as_slice(), &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "dimensions supported")]
    fn too_many_dims_panics() {
        let _ = Coord::zeros(MAX_DIMS + 1);
    }

    #[test]
    fn arithmetic() {
        let a = Coord::from_slice(&[1, 2]);
        let b = Coord::from_slice(&[3, -1]);
        assert_eq!(a.add(&b).as_slice(), &[4, 1]);
        assert_eq!(a.sub(&b).as_slice(), &[-2, 3]);
    }

    #[test]
    fn equality_ignores_unused_slots() {
        let mut a = Coord::zeros(2);
        a.set(0, 5);
        let b = Coord::from_slice(&[5, 0]);
        assert_eq!(a, b);
        // Different dims are different coords even with same prefix.
        let c = Coord::from_slice(&[5, 0, 0]);
        assert_ne!(b, c);
    }

    #[test]
    fn hashable_as_map_key() {
        let mut m: HashMap<Coord, i32> = HashMap::new();
        for x in 0..10i64 {
            for y in 0..10 {
                m.insert(Coord::from_slice(&[x, y]), (x * 10 + y) as i32);
            }
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m[&Coord::from_slice(&[7, 3])], 73);
    }

    #[test]
    fn write_to_fills_the_named_columns() {
        let c = Coord::from_slice(&[4, -2]);
        let mut point = [0i128; 5];
        c.write_to(&mut point, &[1, 3]);
        assert_eq!(point, [0, 4, 0, -2, 0]);
    }

    #[test]
    fn display_format() {
        assert_eq!(Coord::from_slice(&[1, -2]).to_string(), "(1, -2)");
    }
}
