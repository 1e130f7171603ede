//! Finite-field arithmetic in `GF(2^m)` for `2 ≤ m ≤ 16`.
//!
//! Elements are represented as integers in `[0, 2^m)`; addition is XOR;
//! multiplication uses log/antilog tables built from a primitive
//! polynomial, so every operation is O(1).

/// Primitive polynomials (feedback masks, excluding the x^m term) for
/// GF(2^m), m = 2..=16. Standard table values.
const PRIMITIVE_POLY: [u32; 15] = [
    0b111,               // m=2:  x^2+x+1
    0b1011,              // m=3:  x^3+x+1
    0b10011,             // m=4:  x^4+x+1
    0b100101,            // m=5:  x^5+x^2+1
    0b1000011,           // m=6:  x^6+x+1
    0b10001001,          // m=7:  x^7+x^3+1
    0b100011101,         // m=8:  x^8+x^4+x^3+x^2+1
    0b1000010001,        // m=9:  x^9+x^4+1
    0b10000001001,       // m=10: x^10+x^3+1
    0b100000000101,      // m=11: x^11+x^2+1
    0b1000001010011,     // m=12: x^12+x^6+x^4+x+1
    0b10000000011011,    // m=13: x^13+x^4+x^3+x+1
    0b100010001000011,   // m=14: x^14+x^10+x^6+x+1
    0b1000000000000011,  // m=15: x^15+x+1
    0b10001000000001011, // m=16: x^16+x^12+x^3+x+1
];

/// The field `GF(2^m)` with precomputed log/antilog tables.
#[derive(Debug, Clone)]
pub struct GaloisField {
    m: u32,
    size: usize,
    exp: Vec<u16>,
    log: Vec<u16>,
}

impl GaloisField {
    /// Constructs `GF(2^m)`.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ m ≤ 16`.
    pub fn new(m: u32) -> Self {
        assert!((2..=16).contains(&m), "GF(2^m) supported for 2 <= m <= 16");
        let poly = PRIMITIVE_POLY[(m - 2) as usize];
        let size = 1usize << m;
        let order = size - 1;
        let mut exp = vec![0u16; 2 * order];
        let mut log = vec![0u16; size];
        let mut x: u32 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(order) {
            *e = x as u16;
            log[x as usize] = i as u16;
            x <<= 1;
            if x & (1 << m) != 0 {
                x ^= poly;
            }
        }
        // Duplicate the exp table so exp[a+b] never needs a mod.
        let (lo, hi) = exp.split_at_mut(order);
        hi.copy_from_slice(lo);
        GaloisField { m, size, exp, log }
    }

    /// The extension degree `m`.
    pub fn degree(&self) -> u32 {
        self.m
    }

    /// The field size `2^m`.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Field addition (XOR).
    #[inline]
    pub fn add(&self, a: u16, b: u16) -> u16 {
        a ^ b
    }

    /// Field multiplication.
    ///
    /// # Panics
    ///
    /// Debug-panics if an operand is outside the field.
    #[inline]
    pub fn mul(&self, a: u16, b: u16) -> u16 {
        debug_assert!((a as usize) < self.size && (b as usize) < self.size);
        if a == 0 || b == 0 {
            return 0;
        }
        self.exp[self.log[a as usize] as usize + self.log[b as usize] as usize]
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics on `a == 0`.
    #[inline]
    pub fn inv(&self, a: u16) -> u16 {
        assert!(a != 0, "zero has no inverse");
        let order = self.size - 1;
        self.exp[order - self.log[a as usize] as usize]
    }

    /// Field division `a / b`.
    ///
    /// # Panics
    ///
    /// Panics on division by zero.
    #[inline]
    pub fn div(&self, a: u16, b: u16) -> u16 {
        self.mul(a, self.inv(b))
    }

    /// `a^e` by repeated squaring over the log table.
    pub fn pow(&self, a: u16, e: u64) -> u16 {
        if e == 0 {
            return 1;
        }
        if a == 0 {
            return 0;
        }
        let order = (self.size - 1) as u64;
        let l = self.log[a as usize] as u64;
        self.exp[((l * (e % order)) % order) as usize]
    }

    /// The `i`-th power of the primitive element α (i.e. `α^i`).
    pub fn alpha_pow(&self, i: usize) -> u16 {
        self.exp[i % (self.size - 1)]
    }

    /// The antilog table: entry `i` is `α^i` for `0 ≤ i < 2(2^m − 1)`,
    /// doubled so the sum of two logs indexes it without a reduction.
    pub(crate) fn exp_table(&self) -> &[u16] {
        &self.exp
    }

    /// The log table: entry `a` is `log_α a` for `a ≠ 0` (entry 0 is
    /// unused).
    pub(crate) fn log_table(&self) -> &[u16] {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_field_multiplication_table() {
        // GF(4) = {0, 1, a, a+1} with a^2 = a+1.
        let f = GaloisField::new(2);
        assert_eq!(f.mul(2, 2), 3); // a * a = a + 1
        assert_eq!(f.mul(2, 3), 1); // a * (a+1) = 1
        assert_eq!(f.mul(3, 3), 2); // (a+1)^2 = a
    }

    #[test]
    fn mul_zero_and_one() {
        let f = GaloisField::new(8);
        for a in 0..256u16 {
            assert_eq!(f.mul(a, 0), 0);
            assert_eq!(f.mul(a, 1), a);
        }
    }

    #[test]
    fn mul_is_commutative_and_associative() {
        let f = GaloisField::new(6);
        for a in 0..64u16 {
            for b in 0..64u16 {
                assert_eq!(f.mul(a, b), f.mul(b, a));
            }
        }
        // Associativity spot-check.
        for &(a, b, c) in &[(3u16, 17, 42), (9, 9, 9), (62, 1, 35)] {
            assert_eq!(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
        }
    }

    #[test]
    fn distributive_law() {
        let f = GaloisField::new(5);
        for a in 0..32u16 {
            for b in 0..32u16 {
                for c in [0u16, 1, 7, 19, 31] {
                    assert_eq!(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn inverse_round_trip() {
        for m in [2u32, 4, 8, 12, 16] {
            let f = GaloisField::new(m);
            for a in 1..f.size().min(500) as u16 {
                assert_eq!(f.mul(a, f.inv(a)), 1, "m={m}, a={a}");
            }
        }
    }

    #[test]
    fn division_inverts_multiplication() {
        let f = GaloisField::new(8);
        for a in 0..256u16 {
            for b in [1u16, 2, 17, 255] {
                assert_eq!(f.div(f.mul(a, b), b), a);
            }
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let f = GaloisField::new(8);
        for a in [0u16, 1, 2, 37, 200] {
            let mut acc = 1u16;
            for e in 0..10u64 {
                assert_eq!(f.pow(a, e), acc, "a={a}, e={e}");
                acc = f.mul(acc, a);
            }
        }
    }

    #[test]
    fn primitive_element_generates_all_nonzero() {
        let f = GaloisField::new(8);
        let mut seen = vec![false; 256];
        for i in 0..255 {
            let v = f.alpha_pow(i) as usize;
            assert!(!seen[v], "alpha^{i} repeats");
            seen[v] = true;
        }
        assert!(!seen[0], "alpha powers must be nonzero");
    }

    #[test]
    #[should_panic(expected = "zero has no inverse")]
    fn inv_zero_panics() {
        let f = GaloisField::new(4);
        let _ = f.inv(0);
    }

    #[test]
    #[should_panic(expected = "supported")]
    fn degree_out_of_range_panics() {
        let _ = GaloisField::new(17);
    }
}
