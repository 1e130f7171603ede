//! The Justesen-style concatenated code.
//!
//! Outer code: Reed–Solomon `[N, K]` over `GF(2^m)` with `N = 2^m − 1`.
//! Inner codes: the *Wozencraft ensemble* — position `i` of the RS
//! codeword is encoded by the rate-1/2 map `x ↦ (x, αⁱ·x)`, a different
//! linear map for every position. Justesen's insight is that most
//! members of the ensemble meet the GV bound, so the concatenation has
//! constant relative distance with no search or decoding machinery.
//!
//! Guarantees implemented here:
//!
//! * every pair of distinct messages differs in ≥ `N−K+1` outer symbols
//!   (MDS), and each differing symbol contributes ≥ 1 output bit, so the
//!   *certified* minimum distance is `N−K+1` bits;
//! * the ensemble argument (and our empirical measurements — see the
//!   tests and Experiment E8) put the actual relative distance far
//!   higher; the crate-level docs discuss why the rate-1/3 protocol
//!   defaults to [`crate::linear::RandomLinearCode`] instead.

use crate::gf::GaloisField;
use crate::rs_decode::{berlekamp_welch, DecodeError, ErrorUnit};
use crate::BinaryCode;
use std::cell::RefCell;
use std::sync::Arc;

pub mod reference;

/// A Justesen-style concatenated code.
///
/// Cloning is a reference-count bump: the field and per-code tables are
/// built once in [`JustesenCode::new`] and shared.
#[derive(Debug, Clone)]
pub struct JustesenCode {
    tables: Arc<Tables>,
    /// Outer length `N = 2^m − 1`.
    n_outer: usize,
    /// Outer dimension `K`.
    k_outer: usize,
}

/// The per-code tables, shared by every clone of a [`JustesenCode`].
#[derive(Debug)]
struct Tables {
    field: GaloisField,
    /// `α⁰ … α^{N−1}`: the outer evaluation points, which are also the
    /// inner Wozencraft multipliers.
    points: Vec<u16>,
}

/// Marks a zero symbol in a log buffer (logs of non-zero elements are
/// below `2^m − 1 ≤ u16::MAX`).
const ZERO_LOG: u16 = u16::MAX;

/// Per-thread encode/decode scratch, reused across calls.
#[derive(Debug)]
struct Scratch {
    /// Inner-decoded outer symbols `cᵢ`.
    symbols: Vec<u16>,
    /// `log cᵢ`, or [`ZERO_LOG`].
    logs: Vec<u16>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            symbols: Vec::new(),
            logs: Vec::new(),
        })
    };
}

/// `log_α c`, or [`ZERO_LOG`] for `c = 0`.
fn log_or_zero(log: &[u16], c: u16) -> u16 {
    if c == 0 {
        ZERO_LOG
    } else {
        log[c as usize]
    }
}

/// `Σᵢ cᵢ·α^{i·step}` for symbols given by their logs (`step < n`,
/// exponents taken mod `n = 2^m − 1`). This is the transform behind
/// encoding (evaluation at `α^step`), the syndromes and the inverse.
fn power_sum(exp: &[u16], logs: &[u16], step: usize, n: usize) -> u16 {
    let mut acc = 0u16;
    let mut pos = 0usize;
    for &l in logs {
        if l != ZERO_LOG {
            acc ^= exp[l as usize + pos];
        }
        pos += step;
        if pos >= n {
            pos -= n;
        }
    }
    acc
}

impl JustesenCode {
    /// Creates the code with outer RS `[2^m − 1, k_outer]` over
    /// `GF(2^m)`.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ m ≤ 16` and `1 ≤ k_outer ≤ 2^m − 1`.
    pub fn new(m: u32, k_outer: usize) -> Self {
        let field = GaloisField::new(m);
        let n_outer = field.size() - 1;
        assert!(
            (1..=n_outer).contains(&k_outer),
            "outer dimension must be in [1, {n_outer}]"
        );
        let points = (0..n_outer).map(|i| field.alpha_pow(i)).collect();
        JustesenCode {
            tables: Arc::new(Tables { field, points }),
            n_outer,
            k_outer,
        }
    }

    /// Creates the rate-1/3 instance: `K = ⌊2N/3⌋` so
    /// `K·m / (2·N·m) ≈ 1/3`.
    pub fn rate_one_third(m: u32) -> Self {
        let n = (1usize << m) - 1;
        JustesenCode::new(m, (2 * n / 3).max(1))
    }

    /// Outer code length `N` (symbols).
    pub fn outer_length(&self) -> usize {
        self.n_outer
    }

    /// Outer code dimension `K` (symbols).
    pub fn outer_dimension(&self) -> usize {
        self.k_outer
    }

    /// The certified minimum distance in bits: `N − K + 1` (each
    /// differing outer symbol contributes at least one bit).
    pub fn certified_min_distance(&self) -> usize {
        self.n_outer - self.k_outer + 1
    }

    /// Symbol size `m` in bits.
    pub fn symbol_bits(&self) -> usize {
        self.tables.field.degree() as usize
    }

    /// The certified correction radius in wire *bits*: `⌊(N−K)/2⌋`.
    ///
    /// Any pattern of at most this many bit flips is corrected by
    /// [`JustesenCode::decode`]: each flip lands in exactly one inner
    /// block, so `t` flips corrupt at most `t` inner blocks; each
    /// corrupted block yields at most one wrong outer symbol after
    /// nearest-codeword inner decoding; and the outer Berlekamp–Welch
    /// decoder corrects up to `⌊(N−K)/2⌋` outer symbol errors.
    pub fn certified_correction_radius(&self) -> usize {
        (self.n_outer - self.k_outer) / 2
    }

    /// Decodes a received word of [`BinaryCode::output_bits`] bits,
    /// correcting any pattern of at most
    /// [`JustesenCode::certified_correction_radius`] bit flips, and
    /// returns the message repacked into `⌈input_bits/64⌉` words.
    ///
    /// The decoder checks before it solves:
    ///
    /// 1. **Inner.** A block `(y₁, y₂)` at position `i` with
    ///    `y₂ = αⁱ·y₁` is a Wozencraft codeword at Hamming cost 0, so it
    ///    decodes to `y₁` at once. Any other block is decoded by brute
    ///    force over the `2^m` codewords `(x, αⁱ·x)` (nearest by Hamming
    ///    cost; ties break to the smallest `x`, keeping the decoder
    ///    deterministic).
    /// 2. **Outer check.** The outer code evaluates at all of
    ///    `α⁰ … α^{N−1}`, so it is cyclic: the symbols `cᵢ` form a
    ///    codeword iff the syndromes `S_j = Σᵢ cᵢ·α^{ij}` vanish for
    ///    `j = 1 … N−K`. The message is then the inverse transform
    ///    `f_l = Σᵢ cᵢ·α^{−il}` (`N` is odd, so `N⁻¹ = 1`), in `O(N²)`
    ///    table lookups.
    /// 3. **Fallback.** Only a non-zero syndrome runs Berlekamp–Welch
    ///    at the evaluation points `α⁰ … α^{N−1}` (`O(N³)`).
    ///
    /// The result equals [`reference::decode`], which solves every
    /// word, on every input.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::WrongLength`] if `received` carries fewer
    /// than `output_bits` bits, and [`DecodeError::BeyondCapacity`]
    /// when the inner-decoded symbols are not within the outer code's
    /// error capacity of any codeword.
    pub fn decode(&self, received: &[u64]) -> Result<Vec<u64>, DecodeError> {
        let m = self.symbol_bits();
        if received.len() * 64 < self.output_bits() {
            return Err(DecodeError::WrongLength {
                expected: self.output_bits(),
                actual: received.len() * 64,
            });
        }
        let Tables { field, points } = &*self.tables;
        let (exp, log) = (field.exp_table(), field.log_table());
        let (n, k) = (self.n_outer, self.k_outer);
        let mut out = vec![0u64; self.input_bits().div_ceil(64)];
        SCRATCH.with_borrow_mut(|Scratch { symbols, logs }| {
            symbols.clear();
            logs.clear();
            for (i, &mult) in points.iter().enumerate() {
                let y1 = get_bits(received, 2 * i * m, m);
                let y2 = get_bits(received, (2 * i + 1) * m, m);
                let c = if field.mul(mult, y1) == y2 {
                    y1
                } else {
                    nearest_inner(field, mult, y1, y2)
                };
                symbols.push(c);
                logs.push(log_or_zero(log, c));
            }
            if (1..=n - k).all(|j| power_sum(exp, logs, j, n) == 0) {
                for l in 0..k {
                    set_bits(&mut out, l * m, m, power_sum(exp, logs, (n - l) % n, n));
                }
                return Ok(());
            }
            let message =
                berlekamp_welch(field, points, symbols, k).ok_or(DecodeError::BeyondCapacity {
                    capacity: self.certified_correction_radius(),
                    unit: ErrorUnit::Bits,
                })?;
            for (l, &f) in message.iter().enumerate() {
                set_bits(&mut out, l * m, m, f);
            }
            Ok(())
        })?;
        Ok(out)
    }
}

/// The nearest Wozencraft codeword `(x, mult·x)` to `(y1, y2)` by
/// Hamming cost, ties to the smallest `x`.
fn nearest_inner(field: &GaloisField, mult: u16, y1: u16, y2: u16) -> u16 {
    let mut best = 0u16;
    let mut best_cost = u32::MAX;
    for x in 0..field.size() as u16 {
        let cost = (x ^ y1).count_ones() + (field.mul(mult, x) ^ y2).count_ones();
        if cost < best_cost {
            best = x;
            best_cost = cost;
        }
    }
    best
}

/// Reads `count ≤ 16` bits starting at bit `start`.
fn get_bits(words: &[u64], start: usize, count: usize) -> u16 {
    let (w, off) = (start / 64, start % 64);
    let mut v = words[w] >> off;
    if off + count > 64 {
        v |= words[w + 1] << (64 - off);
    }
    (v & ((1u64 << count) - 1)) as u16
}

/// ORs the low `count ≤ 16` bits of `value` in at bit `start`.
fn set_bits(words: &mut [u64], start: usize, count: usize, value: u16) {
    let (w, off) = (start / 64, start % 64);
    let v = u64::from(value) & ((1u64 << count) - 1);
    words[w] |= v << off;
    if off + count > 64 {
        words[w + 1] |= v >> (64 - off);
    }
}

impl BinaryCode for JustesenCode {
    fn input_bits(&self) -> usize {
        self.k_outer * self.symbol_bits()
    }

    fn output_bits(&self) -> usize {
        2 * self.n_outer * self.symbol_bits()
    }

    fn encode(&self, message: &[u64]) -> Vec<u64> {
        let m = self.symbol_bits();
        assert!(
            message.len() * 64 >= self.input_bits(),
            "message too short for {} bits",
            self.input_bits()
        );
        let Tables { field, points } = &*self.tables;
        let (exp, log) = (field.exp_table(), field.log_table());
        let n = self.n_outer;
        let mut out = vec![0u64; self.output_bits().div_ceil(64)];
        SCRATCH.with_borrow_mut(|Scratch { logs, .. }| {
            // Unpack the K message symbols as logs.
            logs.clear();
            logs.extend((0..self.k_outer).map(|l| log_or_zero(log, get_bits(message, l * m, m))));
            // Outer RS encoding at points α^0 .. α^{N-1}, inner
            // Wozencraft map x ↦ (x, α^i·x) at position i.
            for (i, &mult) in points.iter().enumerate() {
                let c = power_sum(exp, logs, i, n);
                set_bits(&mut out, 2 * i * m, m, c);
                set_bits(&mut out, (2 * i + 1) * m, m, field.mul(mult, c));
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{hamming_distance, sampled_min_distance};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn shapes() {
        let c = JustesenCode::new(8, 170);
        assert_eq!(c.outer_length(), 255);
        assert_eq!(c.input_bits(), 170 * 8);
        assert_eq!(c.output_bits(), 2 * 255 * 8);
        assert_eq!(c.certified_min_distance(), 86);
    }

    #[test]
    fn rate_one_third_is_close() {
        let c = JustesenCode::rate_one_third(8);
        assert!((c.rate() - 1.0 / 3.0).abs() < 0.01, "rate {}", c.rate());
    }

    #[test]
    fn zero_encodes_to_zero() {
        let c = JustesenCode::new(6, 20);
        let cw = c.encode(&vec![0u64; c.input_bits().div_ceil(64)]);
        assert!(cw.iter().all(|&w| w == 0));
    }

    #[test]
    fn encoding_is_linear() {
        let c = JustesenCode::new(6, 10);
        let words = c.input_bits().div_ceil(64);
        let mut rng = StdRng::seed_from_u64(1);
        let a: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
        let b: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
        let ab: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x ^ y).collect();
        let ca = c.encode(&a);
        let cb = c.encode(&b);
        let cab = c.encode(&ab);
        for i in 0..ca.len() {
            assert_eq!(cab[i], ca[i] ^ cb[i]);
        }
    }

    #[test]
    fn certified_distance_holds_on_random_pairs() {
        let c = JustesenCode::new(6, 21); // N=63, certified distance 43
        let words = c.input_bits().div_ceil(64);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let a: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
            let mut b = a.clone();
            b[0] ^= 1u64 << rng.gen_range(0..64u32);
            let d = hamming_distance(&c.encode(&a), &c.encode(&b), c.output_bits());
            assert!(
                d >= c.certified_min_distance(),
                "distance {d} below certified {}",
                c.certified_min_distance()
            );
        }
    }

    #[test]
    fn measured_distance_beats_certified() {
        // The ensemble argument: real distance is far above N-K+1 bits.
        let c = JustesenCode::rate_one_third(8);
        let mut rng = StdRng::seed_from_u64(3);
        let d = sampled_min_distance(&c, 200, &mut rng);
        assert!(
            d > 2 * c.certified_min_distance(),
            "sampled distance {d} not well above certified {}",
            c.certified_min_distance()
        );
    }

    #[test]
    fn wozencraft_pairing_structure() {
        // For a constant polynomial, position i holds (c, α^i·c): the
        // first half-symbol is constant, the second varies.
        let c = JustesenCode::new(4, 1);
        let msg = [0b0101u64]; // single symbol 5
        let cw = c.encode(&msg);
        let m = c.symbol_bits();
        let first = super::get_bits(&cw, 0, m);
        assert_eq!(first, 5);
        let mut paired_values = std::collections::HashSet::new();
        for i in 0..c.outer_length() {
            paired_values.insert(super::get_bits(&cw, (2 * i + 1) * m, m));
        }
        // α^i·5 takes every nonzero value exactly once over the period.
        assert_eq!(paired_values.len(), c.outer_length());
    }

    #[test]
    #[should_panic(expected = "outer dimension")]
    fn oversized_dimension_panics() {
        let _ = JustesenCode::new(4, 16);
    }

    #[test]
    fn decode_clean_round_trip() {
        let c = JustesenCode::rate_one_third(5); // N=31, K=20, radius 5
        assert_eq!(c.certified_correction_radius(), 5);
        let words = c.input_bits().div_ceil(64);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let mut msg: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
            // Mask bits past input_bits so the round trip is exact.
            let extra = words * 64 - c.input_bits();
            if extra > 0 {
                *msg.last_mut().unwrap() &= u64::MAX >> extra;
            }
            let cw = c.encode(&msg);
            assert_eq!(c.decode(&cw).expect("clean decode"), msg);
        }
    }

    #[test]
    fn decode_corrects_up_to_radius() {
        let c = JustesenCode::rate_one_third(5);
        let words = c.input_bits().div_ceil(64);
        let out_bits = c.output_bits();
        let mut rng = StdRng::seed_from_u64(12);
        for trial in 0..50 {
            let mut msg: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
            let extra = words * 64 - c.input_bits();
            if extra > 0 {
                *msg.last_mut().unwrap() &= u64::MAX >> extra;
            }
            let mut cw = c.encode(&msg);
            let t = rng.gen_range(1..=c.certified_correction_radius());
            let mut flipped = std::collections::HashSet::new();
            while flipped.len() < t {
                flipped.insert(rng.gen_range(0..out_bits));
            }
            for &bit in &flipped {
                cw[bit / 64] ^= 1u64 << (bit % 64);
            }
            assert_eq!(
                c.decode(&cw).unwrap_or_else(|e| panic!(
                    "trial {trial}: {t} flips within radius failed: {e}"
                )),
                msg
            );
        }
    }

    #[test]
    fn decode_rejects_overwhelming_corruption() {
        // Far beyond the radius the decoder must not silently return
        // the original message: it either fails or lands on a
        // different (nearer) codeword.
        let c = JustesenCode::rate_one_third(5);
        let words = c.input_bits().div_ceil(64);
        let mut rng = StdRng::seed_from_u64(13);
        let mut msg: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
        let extra = words * 64 - c.input_bits();
        if extra > 0 {
            *msg.last_mut().unwrap() &= u64::MAX >> extra;
        }
        let mut cw = c.encode(&msg);
        // Flip roughly half of all wire bits.
        for bit in (0..c.output_bits()).step_by(2) {
            cw[bit / 64] ^= 1u64 << (bit % 64);
        }
        match c.decode(&cw) {
            Err(e) => assert_eq!(e.capacity(), Some(c.certified_correction_radius())),
            Ok(decoded) => assert_ne!(decoded, msg),
        }
    }

    #[test]
    fn beyond_capacity_message_counts_bits() {
        let c = JustesenCode::rate_one_third(5);
        let cw = vec![u64::MAX; c.output_bits().div_ceil(64)];
        let err = c
            .decode(&cw)
            .expect_err("all-ones word is far from the code");
        assert_eq!(
            err.to_string(),
            "received word is not decodable within 5 bit errors"
        );
    }

    #[test]
    fn clones_share_tables() {
        let c = JustesenCode::rate_one_third(5);
        assert!(Arc::ptr_eq(&c.tables, &c.clone().tables));
    }
}
