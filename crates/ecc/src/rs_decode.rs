//! Reed–Solomon decoding via the Berlekamp–Welch algorithm.
//!
//! The uniformity-testing protocols only ever *encode* (the Equality
//! referee compares codeword chunks, never reconstructs), but a code
//! library without a decoder is half a library. Berlekamp–Welch
//! corrects up to `e = ⌊(N−K)/2⌋` symbol errors by solving one linear
//! system over `GF(2^m)`:
//!
//! find `E(x)` (monic, degree `e`) and `Q(x)` (degree `< K+e`) with
//! `Q(aᵢ) = rᵢ·E(aᵢ)` at every evaluation point; then the message
//! polynomial is `Q(x)/E(x)`.
//!
//! The solver core (`berlekamp_welch`) is parameterized by the
//! evaluation points, because [`crate::rs::RsCode`] and the outer code
//! of [`crate::justesen::JustesenCode`] evaluate at *different* point
//! sequences (`0, α⁰, α¹, …` versus `α⁰ … α^{N−1}`). The two decoders
//! call it in different orders:
//!
//! * [`RsCode::decode`] solves every word.
//! * [`crate::justesen::JustesenCode::decode`] checks first. Its outer
//!   points are all of `α⁰ … α^{N−1}`, so the outer code is cyclic and
//!   a word is a codeword iff its `N−K` syndromes vanish. A clean word's
//!   message is then read off by the inverse transform, and only a word
//!   with a non-zero syndrome reaches the solver here. The result is
//!   the same as solving every word
//!   ([`crate::justesen::reference::decode`]).

use crate::gf::GaloisField;
use crate::rs::RsCode;
use std::error::Error;
use std::fmt;

/// What the capacity of a [`DecodeError::BeyondCapacity`] counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorUnit {
    /// Code symbols over `GF(2^m)` ([`crate::rs::RsCode`]).
    Symbols,
    /// Wire bits ([`crate::justesen::JustesenCode`]).
    Bits,
}

/// Decoding failure. Decoders must be total on adversarial input —
/// coded protocol paths feed them whatever arrives off the wire — so
/// every rejection is a typed variant here, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// More errors than the code can correct (or an inconsistent word).
    BeyondCapacity {
        /// The maximum number of errors the code can correct, counted
        /// in `unit`.
        capacity: usize,
        /// Symbols for [`crate::rs::RsCode`], wire bits for
        /// [`crate::justesen::JustesenCode`].
        unit: ErrorUnit,
    },
    /// The received word has the wrong length — exactly `N` symbols for
    /// [`crate::rs::RsCode`], at least `output_bits` bits for
    /// [`crate::justesen::JustesenCode`].
    WrongLength {
        /// The length the decoder requires (symbols for RS, bits for
        /// Justesen).
        expected: usize,
        /// The length actually received (in the same unit).
        actual: usize,
    },
}

impl DecodeError {
    /// The error capacity for [`DecodeError::BeyondCapacity`], `None`
    /// otherwise. Convenience for call sites that only care about the
    /// undecodable case.
    pub fn capacity(&self) -> Option<usize> {
        match self {
            DecodeError::BeyondCapacity { capacity, .. } => Some(*capacity),
            DecodeError::WrongLength { .. } => None,
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BeyondCapacity { capacity, unit } => {
                let unit = match unit {
                    ErrorUnit::Symbols => "symbol",
                    ErrorUnit::Bits => "bit",
                };
                write!(
                    f,
                    "received word is not decodable within {capacity} {unit} errors"
                )
            }
            DecodeError::WrongLength { expected, actual } => write!(
                f,
                "received word has length {actual}, decoder requires {expected}"
            ),
        }
    }
}

impl Error for DecodeError {}

/// Gaussian elimination over `GF(2^m)`: solves `A·x = b` in place.
/// Returns `None` if the system is singular in a way that admits no
/// solution (free variables are set to zero).
#[allow(clippy::needless_range_loop)]
fn solve_linear(field: &GaloisField, mut a: Vec<Vec<u16>>, mut b: Vec<u16>) -> Option<Vec<u16>> {
    let rows = a.len();
    let cols = if rows == 0 { 0 } else { a[0].len() };
    let mut pivot_of_col: Vec<Option<usize>> = vec![None; cols];
    let mut row = 0usize;
    for col in 0..cols {
        if row >= rows {
            break;
        }
        // Find a pivot.
        let Some(p) = (row..rows).find(|&r| a[r][col] != 0) else {
            continue;
        };
        a.swap(row, p);
        b.swap(row, p);
        // Normalize the pivot row.
        let inv = field.inv(a[row][col]);
        for v in a[row].iter_mut() {
            *v = field.mul(*v, inv);
        }
        b[row] = field.mul(b[row], inv);
        // Eliminate the column everywhere else.
        for r in 0..rows {
            if r != row && a[r][col] != 0 {
                let factor = a[r][col];
                for c in 0..cols {
                    let sub = field.mul(factor, a[row][c]);
                    a[r][c] = field.add(a[r][c], sub);
                }
                let sub = field.mul(factor, b[row]);
                b[r] = field.add(b[r], sub);
            }
        }
        pivot_of_col[col] = Some(row);
        row += 1;
    }
    // Inconsistency: a zero row with nonzero rhs.
    for r in row..rows {
        if b[r] != 0 {
            return None;
        }
    }
    // Read off the solution (free variables = 0).
    let mut x = vec![0u16; cols];
    for (col, pivot) in pivot_of_col.iter().enumerate() {
        if let Some(r) = pivot {
            x[col] = b[*r];
        }
    }
    Some(x)
}

/// Polynomial long division `num / den` over the field; returns
/// `(quotient, remainder)`, or `None` when `den` is the zero
/// polynomial. Leading zeros are tolerated. Degenerate divisors are a
/// decode failure for the callers, not a programming error, so this
/// must not panic.
fn poly_div(field: &GaloisField, num: &[u16], den: &[u16]) -> Option<(Vec<u16>, Vec<u16>)> {
    let deg = |p: &[u16]| p.iter().rposition(|&c| c != 0);
    let dd = deg(den)?;
    let mut rem: Vec<u16> = num.to_vec();
    let mut quot = vec![0u16; num.len().max(1)];
    while let Some(dn) = deg(&rem) {
        if dn < dd {
            break;
        }
        let factor = field.div(rem[dn], den[dd]);
        let shift = dn - dd;
        quot[shift] = field.add(quot[shift], factor);
        for (i, &dc) in den.iter().enumerate().take(dd + 1) {
            let sub = field.mul(factor, dc);
            rem[i + shift] = field.add(rem[i + shift], sub);
        }
    }
    Some((quot, rem))
}

/// Horner evaluation of `coeffs` (low-order first) at `x`.
fn eval_poly(field: &GaloisField, coeffs: &[u16], x: u16) -> u16 {
    let mut acc = 0u16;
    for &c in coeffs.iter().rev() {
        acc = field.add(field.mul(acc, x), c);
    }
    acc
}

/// The Berlekamp–Welch core over arbitrary distinct evaluation points:
/// finds the unique polynomial of degree `< k` whose evaluations at
/// `points` are within `e = ⌊(points.len() − k) / 2⌋` symbol errors of
/// `received`, returning its `k` coefficients (low-order first).
/// Returns `None` when no codeword lies within the error capacity.
///
/// Solves every word for [`RsCode::decode`] and
/// [`crate::justesen::reference::decode`], and only the words with a
/// non-zero syndrome for [`crate::justesen::JustesenCode::decode`];
/// the outer codes use different point sequences.
pub(crate) fn berlekamp_welch(
    field: &GaloisField,
    points: &[u16],
    received: &[u16],
    k: usize,
) -> Option<Vec<u16>> {
    let n = points.len();
    debug_assert_eq!(received.len(), n);
    let e = (n - k) / 2;

    // Unknowns: Q_0..Q_{k+e-1}, E_0..E_{e-1}  (E_e = 1 monic).
    // Equation i: Σ_j Q_j a_i^j + r_i·Σ_{j<e} E_j a_i^j = r_i·a_i^e.
    let cols = k + 2 * e;
    let mut a = Vec::with_capacity(n);
    let mut b = Vec::with_capacity(n);
    for (i, &ai) in points.iter().enumerate() {
        let ri = received[i];
        let mut row = vec![0u16; cols];
        let mut pw = 1u16;
        for cell in row.iter_mut().take(k + e) {
            *cell = pw;
            pw = field.mul(pw, ai);
        }
        let mut pw = 1u16;
        for cell in row.iter_mut().skip(k + e) {
            *cell = field.mul(ri, pw);
            pw = field.mul(pw, ai);
        }
        // rhs: r_i · a_i^e
        let rhs = field.mul(ri, field.pow(ai, e as u64));
        a.push(row);
        b.push(rhs);
    }
    let x = solve_linear(field, a, b)?;

    let q: Vec<u16> = x[..k + e].to_vec();
    let mut err_loc: Vec<u16> = x[k + e..].to_vec();
    err_loc.push(1); // monic x^e term

    let (msg, rem) = poly_div(field, &q, &err_loc)?;
    if rem.iter().any(|&c| c != 0) {
        return None;
    }
    let mut message = vec![0u16; k];
    for (i, slot) in message.iter_mut().enumerate() {
        *slot = msg.get(i).copied().unwrap_or(0);
    }
    // Degree check: Q/E must have degree < k.
    if msg.iter().skip(k).any(|&c| c != 0) {
        return None;
    }
    // Verify: the decoded message must be within e of the received
    // word (guards against a consistent-but-wrong solve).
    let dist = points
        .iter()
        .zip(received)
        .filter(|&(&p, &r)| eval_poly(field, &message, p) != r)
        .count();
    if dist > e {
        return None;
    }
    Some(message)
}

impl RsCode<'_> {
    /// Decodes a received word (length `N`), correcting up to
    /// `⌊(N−K)/2⌋` symbol errors, and returns the `K` message symbols.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::WrongLength`] if `received` does not have
    /// exactly `N` symbols, and [`DecodeError::BeyondCapacity`] when
    /// the word is not within the error capacity of any codeword.
    pub fn decode(&self, received: &[u16]) -> Result<Vec<u16>, DecodeError> {
        let n = self.length();
        let k = self.dimension();
        if received.len() != n {
            return Err(DecodeError::WrongLength {
                expected: n,
                actual: received.len(),
            });
        }
        berlekamp_welch(self.field(), self.points(), received, k).ok_or(
            DecodeError::BeyondCapacity {
                capacity: (n - k) / 2,
                unit: ErrorUnit::Symbols,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (GaloisField, Vec<u16>) {
        let f = GaloisField::new(8);
        let msg = vec![17u16, 42, 3, 99, 200, 1, 0, 255];
        (f, msg)
    }

    #[test]
    fn decodes_clean_word() {
        let (f, msg) = setup();
        let rs = RsCode::new(&f, 32, 8);
        let cw = rs.encode(&msg);
        assert_eq!(rs.decode(&cw).unwrap(), msg);
    }

    #[test]
    fn corrects_up_to_capacity() {
        let (f, msg) = setup();
        let rs = RsCode::new(&f, 32, 8); // e = 12
        let mut rng = StdRng::seed_from_u64(1);
        for errors in 1..=12usize {
            let mut cw = rs.encode(&msg);
            let mut positions: Vec<usize> = (0..32).collect();
            for i in (1..32).rev() {
                let j = rng.gen_range(0..=i);
                positions.swap(i, j);
            }
            for &pos in positions.iter().take(errors) {
                cw[pos] ^= 1 + rng.gen_range(0..255) as u16;
            }
            assert_eq!(rs.decode(&cw).unwrap(), msg, "failed at {errors} errors");
        }
    }

    #[test]
    fn rejects_beyond_capacity() {
        let (f, msg) = setup();
        let rs = RsCode::new(&f, 16, 8); // e = 4
        let mut cw = rs.encode(&msg);
        // Corrupt 9 of 16 positions: closer to some other codeword or
        // undecodable; either way the true message must not come back
        // silently wrong without detection in *most* cases — here we
        // only require no panic and a well-formed result.
        let mut rng = StdRng::seed_from_u64(2);
        for c in cw.iter_mut().take(9) {
            *c ^= 1 + rng.gen_range(0..255) as u16;
        }
        match rs.decode(&cw) {
            Ok(decoded) => {
                // If it decodes, it must decode to a codeword within
                // capacity of the received word.
                let re = rs.encode(&decoded);
                let d = re.iter().zip(&cw).filter(|(a, b)| a != b).count();
                assert!(d <= 4);
            }
            Err(e) => assert_eq!(
                e,
                DecodeError::BeyondCapacity {
                    capacity: 4,
                    unit: ErrorUnit::Symbols
                }
            ),
        }
    }

    #[test]
    fn beyond_capacity_message_counts_symbols() {
        let (f, _) = setup();
        let rs = RsCode::new(&f, 16, 8); // e = 4
                                         // Nine distinct non-zero symbols, the rest zero: not within 4 of
                                         // any codeword.
        let word: Vec<u16> = (1..=16).map(|i| if i <= 9 { i } else { 0 }).collect();
        let err = rs.decode(&word).expect_err("beyond e = 4");
        assert_eq!(
            err.to_string(),
            "received word is not decodable within 4 symbol errors"
        );
    }

    #[test]
    fn zero_capacity_code_detects_any_error() {
        let (f, msg) = setup();
        let rs = RsCode::new(&f, 9, 8); // e = 0
        let mut cw = rs.encode(&msg);
        assert_eq!(rs.decode(&cw).unwrap(), msg);
        cw[0] ^= 5;
        assert!(rs.decode(&cw).is_err());
    }

    #[test]
    fn burst_errors_at_start() {
        let (f, msg) = setup();
        let rs = RsCode::new(&f, 40, 8); // e = 16
        let mut cw = rs.encode(&msg);
        for c in cw.iter_mut().take(16) {
            *c ^= 0xAA;
        }
        assert_eq!(rs.decode(&cw).unwrap(), msg);
    }

    #[test]
    fn random_round_trips() {
        let f = GaloisField::new(6);
        let rs = RsCode::new(&f, 60, 20); // e = 20
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let msg: Vec<u16> = (0..20).map(|_| rng.gen_range(0..64)).collect();
            let mut cw = rs.encode(&msg);
            let errors = rng.gen_range(0..=20);
            let mut positions: Vec<usize> = (0..60).collect();
            for i in (1..60).rev() {
                let j = rng.gen_range(0..=i);
                positions.swap(i, j);
            }
            for &pos in positions.iter().take(errors) {
                cw[pos] ^= 1 + rng.gen_range(0..63) as u16;
            }
            assert_eq!(rs.decode(&cw).unwrap(), msg, "{errors} errors");
        }
    }

    #[test]
    fn wrong_length_is_typed_error() {
        let (f, msg) = setup();
        let rs = RsCode::new(&f, 16, 8);
        let cw = rs.encode(&msg);
        assert_eq!(
            rs.decode(&cw[..10]).unwrap_err(),
            DecodeError::WrongLength {
                expected: 16,
                actual: 10
            }
        );
        let mut long = cw.clone();
        long.push(0);
        assert!(matches!(
            rs.decode(&long).unwrap_err(),
            DecodeError::WrongLength { actual: 17, .. }
        ));
    }

    #[test]
    fn poly_div_basic() {
        let f = GaloisField::new(4);
        // (x^2 + 1) = (x + 1)(x + 1) over GF(2^m)
        let num = vec![1u16, 0, 1];
        let den = vec![1u16, 1];
        let (q, r) = poly_div(&f, &num, &den).unwrap();
        assert!(r.iter().all(|&c| c == 0));
        assert_eq!(&q[..2], &[1, 1]);
    }

    #[test]
    fn poly_div_by_zero_polynomial_is_none() {
        let f = GaloisField::new(4);
        assert!(poly_div(&f, &[1u16, 0, 1], &[0u16, 0]).is_none());
        assert!(poly_div(&f, &[1u16], &[]).is_none());
    }
}
