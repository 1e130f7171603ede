//! Seeded differential fuzz drivers.
//!
//! Each driver runs a fixed number of randomized cases from a single
//! `u64` seed (fully reproducible), exercises a decode or protocol path
//! under [`std::panic::catch_unwind`], and tallies outcomes into a
//! report. The typed-error contracts of the exercised APIs mean
//! **every panic is a bug**; reports expose an
//! `assert_contract` helper that test trees call to fail loudly with
//! the full tally.
//!
//! Corruption placement relative to the certified radius is the point:
//! at or below `⌊(N−K)/2⌋` errors a decoder must round-trip *exactly*;
//! beyond it, it may reject (typed) or settle on a different codeword —
//! but it must stay total.

use dut_congest::{robust_bandwidth_model, solve_token_packaging_robust, PackagingError};
use dut_ecc::rs_decode::DecodeError;
use dut_ecc::{justesen, BinaryCode, GaloisField, JustesenCode};
use dut_netsim::fault::FaultPlan;
use dut_netsim::topology::Topology;
use dut_obs::sink::NoopSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Splits an RS codeword index set: picks `t` distinct positions.
fn distinct_positions<R: Rng + ?Sized>(rng: &mut R, n: usize, t: usize) -> Vec<usize> {
    let mut positions: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        positions.swap(i, j);
    }
    positions.truncate(t);
    positions
}

/// Outcome tally of a codec corruption-fuzz run.
///
/// Contract fields (`wrong_decodes`, `panics`) must be zero; the
/// classification fields exist so tests can also assert the run
/// actually *covered* the interesting regimes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CodecFuzzReport {
    /// Cases run.
    pub cases: usize,
    /// Cases corrupted at or below the certified radius (must
    /// round-trip exactly).
    pub within_radius: usize,
    /// Cases corrupted beyond the certified radius.
    pub beyond_radius: usize,
    /// Beyond-radius cases the decoder rejected with
    /// [`DecodeError::BeyondCapacity`] (the rest legally decoded to
    /// some other codeword).
    pub beyond_rejected: usize,
    /// Cases fed a wrong-length word (must yield
    /// [`DecodeError::WrongLength`]).
    pub wrong_length: usize,
    /// Cases whose corruption replaced whole inner blocks with other
    /// valid inner codewords (Justesen only; also counted as within or
    /// beyond the radius by their outer symbol errors).
    pub block_swaps: usize,
    /// Contract violations: a within-radius case that did not decode to
    /// the original message, or a wrong-length case without the typed
    /// error. Must be zero.
    pub wrong_decodes: usize,
    /// Cases where the decoder's result (message or error) differed
    /// from its retained reference decoder (Justesen only). Must be
    /// zero.
    pub reference_mismatches: usize,
    /// Decoder panics. Must be zero — decode is total by contract.
    pub panics: usize,
}

impl CodecFuzzReport {
    /// Panics with the full tally unless the contract fields are clean
    /// and every corruption regime was exercised.
    pub fn assert_contract(&self) {
        assert!(
            self.panics == 0 && self.wrong_decodes == 0 && self.reference_mismatches == 0,
            "codec fuzz contract violated: {self:?}"
        );
        assert!(
            self.within_radius > 0 && self.beyond_radius > 0 && self.wrong_length > 0,
            "codec fuzz did not cover all corruption regimes: {self:?}"
        );
    }
}

/// Fuzzes [`dut_ecc::rs::RsCode`] encode→corrupt→decode round-trips.
///
/// Each case draws a field `GF(2^m)` (`3 ≤ m ≤ 6`), a random `[n, k]`
/// code, a random message, and either a wrong-length word (~1 in 16) or
/// `t` corrupted symbols with `t` ranging from clean through twice the
/// certified capacity. Corruption stays inside the field alphabet (the
/// decoder's symbol domain).
pub fn fuzz_rs_codec(seed: u64, cases: usize) -> CodecFuzzReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut report = CodecFuzzReport {
        cases,
        ..CodecFuzzReport::default()
    };
    for _ in 0..cases {
        let m = rng.gen_range(3..=6u32);
        let field = GaloisField::new(m);
        let size = field.size();
        let n = rng.gen_range(4..=size.min(24));
        let k = rng.gen_range(1..=n - 2);
        let rs = dut_ecc::rs::RsCode::new(&field, n, k);
        let capacity = (n - k) / 2;
        let message: Vec<u16> = (0..k).map(|_| rng.gen_range(0..size) as u16).collect();
        let mut word = rs.encode(&message);

        if rng.gen_range(0..16u32) == 0 {
            // Wrong-length regime: drop or append symbols.
            report.wrong_length += 1;
            if rng.gen::<bool>() && word.len() > 1 {
                word.pop();
            } else {
                word.push(rng.gen_range(0..size) as u16);
            }
            match catch_unwind(AssertUnwindSafe(|| rs.decode(&word))) {
                Ok(Err(DecodeError::WrongLength { expected, actual })) => {
                    if expected != n || actual != word.len() {
                        report.wrong_decodes += 1;
                    }
                }
                Ok(_) => report.wrong_decodes += 1,
                Err(_) => report.panics += 1,
            }
            continue;
        }

        let t = rng.gen_range(0..=(2 * capacity + 1).min(n));
        for &pos in &distinct_positions(&mut rng, n, t) {
            word[pos] ^= rng.gen_range(1..size) as u16;
        }
        match catch_unwind(AssertUnwindSafe(|| rs.decode(&word))) {
            Ok(outcome) => {
                if t <= capacity {
                    report.within_radius += 1;
                    if outcome != Ok(message) {
                        report.wrong_decodes += 1;
                    }
                } else {
                    report.beyond_radius += 1;
                    match outcome {
                        Err(DecodeError::BeyondCapacity { capacity: c, .. }) if c == capacity => {
                            report.beyond_rejected += 1;
                        }
                        // Legal: the corrupted word landed within
                        // capacity of a *different* codeword.
                        Ok(other) if other != message => {}
                        _ => report.wrong_decodes += 1,
                    }
                }
            }
            Err(_) => report.panics += 1,
        }
    }
    report
}

/// Fuzzes [`JustesenCode`] encode→corrupt→decode round-trips against
/// the retained reference decoder ([`justesen::reference::decode`]).
///
/// Each case draws a rate-1/3 instance over `GF(2^m)` (`3 ≤ m ≤ 6`), a
/// random message, and one of three corruptions:
///
/// * a truncated wire word (~1 in 16);
/// * `t` distinct wire-bit flips, `t` from clean through past the
///   certified correction radius (~11 in 16);
/// * `s` whole inner blocks replaced by *other valid* Wozencraft pairs
///   `(x, αⁱ·x)` (~4 in 16): every inner block decodes at cost 0 but the
///   outer word carries `s` symbol errors, so its syndrome is non-zero.
///   `s` runs from 1 through `N−K`, past the outer capacity.
///
/// Every case must return bit-for-bit the reference decoder's result,
/// `Ok` or `Err`. Corruption within the certified capacity (`t` bits or
/// `s` blocks) must also round-trip exactly.
pub fn fuzz_justesen_codec(seed: u64, cases: usize) -> CodecFuzzReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut report = CodecFuzzReport {
        cases,
        ..CodecFuzzReport::default()
    };
    let codes: Vec<(JustesenCode, GaloisField)> = (3..=6u32)
        .map(|m| (JustesenCode::rate_one_third(m), GaloisField::new(m)))
        .collect();
    for _ in 0..cases {
        let (code, field) = &codes[rng.gen_range(0..codes.len())];
        let m = code.symbol_bits();
        let in_bits = code.input_bits();
        let out_bits = code.output_bits();
        let radius = code.certified_correction_radius();

        // Random message, masked down to exactly `in_bits` bits.
        let mut message: Vec<u64> = (0..in_bits.div_ceil(64)).map(|_| rng.gen()).collect();
        let tail = in_bits % 64;
        if tail != 0 {
            *message.last_mut().expect("non-empty message") &= (1u64 << tail) - 1;
        }
        let mut word = code.encode(&message);

        let regime = rng.gen_range(0..16u32);
        let within = if regime == 0 {
            report.wrong_length += 1;
            word.pop();
            None
        } else if regime <= 4 {
            // XOR a non-zero valid pair (d, αⁱ·d) into block i: the
            // block stays a Wozencraft codeword, for another symbol.
            report.block_swaps += 1;
            let n = code.outer_length();
            let s = rng.gen_range(1..=n - code.outer_dimension());
            for i in distinct_positions(&mut rng, n, s) {
                let d = rng.gen_range(1..field.size()) as u64;
                let pair = d | u64::from(field.mul(field.alpha_pow(i), d as u16)) << m;
                for b in 0..2 * m {
                    let bit = 2 * i * m + b;
                    word[bit / 64] ^= ((pair >> b) & 1) << (bit % 64);
                }
            }
            Some(s <= radius)
        } else {
            let t = rng.gen_range(0..=radius + radius / 2 + 2);
            for &bit in &distinct_positions(&mut rng, out_bits, t.min(out_bits)) {
                word[bit / 64] ^= 1u64 << (bit % 64);
            }
            Some(t <= radius)
        };

        let fast = catch_unwind(AssertUnwindSafe(|| code.decode(&word)));
        let reference = catch_unwind(AssertUnwindSafe(|| {
            justesen::reference::decode(code, &word)
        }));
        let (Ok(outcome), Ok(expected)) = (fast, reference) else {
            report.panics += 1;
            continue;
        };
        if outcome != expected {
            report.reference_mismatches += 1;
        }
        match (within, outcome) {
            (None, Err(DecodeError::WrongLength { expected, .. })) if expected == out_bits => {}
            (None, _) => report.wrong_decodes += 1,
            (Some(true), outcome) => {
                report.within_radius += 1;
                if outcome.as_deref() != Ok(&message[..]) {
                    report.wrong_decodes += 1;
                }
            }
            (Some(false), outcome) => {
                report.beyond_radius += 1;
                match outcome {
                    Err(DecodeError::BeyondCapacity { .. }) => report.beyond_rejected += 1,
                    // Another codeword, or the original: the certified
                    // radius is a lower bound on real correction power.
                    Ok(_) => {}
                    Err(DecodeError::WrongLength { .. }) => report.wrong_decodes += 1,
                }
            }
        }
    }
    report
}

/// Outcome tally of a token-packaging fuzz run under randomized fault
/// plans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackagingFuzzReport {
    /// Cases run.
    pub cases: usize,
    /// Runs that produced a packaging (invariants checked).
    pub ok: usize,
    /// Runs rejected with a typed [`PackagingError`] (all legal).
    pub typed_errors: usize,
    /// Definition-2 violations on successful runs: a package whose size
    /// is not exactly τ, or (fault-free only) lost tokens or a root
    /// residue of τ or more. Must be zero.
    pub invariant_violations: usize,
    /// Panics out of the packaging pipeline. Must be zero.
    pub panics: usize,
}

impl PackagingFuzzReport {
    /// Panics with the full tally unless the run was panic-free,
    /// invariant-clean, and covered both success and typed-error paths.
    pub fn assert_contract(&self) {
        assert!(
            self.panics == 0 && self.invariant_violations == 0,
            "packaging fuzz contract violated: {self:?}"
        );
        assert!(
            self.ok > 0 && self.typed_errors > 0,
            "packaging fuzz did not cover both outcome kinds: {self:?}"
        );
    }
}

/// Fuzzes the robust τ-token-packaging pipeline under randomized
/// topologies, token loads, and [`FaultPlan`]s — including invalid
/// inputs (`τ = 0`, mismatched token/id vectors) that must surface as
/// typed errors.
pub fn fuzz_token_packaging(seed: u64, cases: usize) -> PackagingFuzzReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut report = PackagingFuzzReport {
        cases,
        ..PackagingFuzzReport::default()
    };
    let model = robust_bandwidth_model();
    for _ in 0..cases {
        let t_idx = rng.gen_range(0..Topology::ALL.len());
        let k_req = rng.gen_range(1..=10usize);
        let g = Topology::ALL[t_idx].instantiate(k_req, &mut rng);
        let k = g.node_count();
        let mut tokens: Vec<Vec<u64>> = (0..k)
            .map(|_| {
                let c = rng.gen_range(0..4usize);
                (0..c).map(|_| rng.gen_range(0..997u64)).collect()
            })
            .collect();
        // Distinct ids with a unique maximum: spacing beats the offset.
        let mut ids: Vec<u64> = (0..k)
            .map(|v| u64::from(rng.gen::<u32>()) * 1009 + v as u64)
            .collect();
        // Invalid-input regimes: τ = 0 (~1 in 12), mismatched lengths
        // (~1 in 12).
        let tau = if rng.gen_range(0..12u32) == 0 {
            0
        } else {
            rng.gen_range(1..=5usize)
        };
        let expect_mismatch = rng.gen_range(0..12u32) == 0;
        if expect_mismatch {
            if rng.gen::<bool>() {
                tokens.push(Vec::new());
            } else {
                ids.pop();
            }
        }
        let plan = if rng.gen::<bool>() {
            FaultPlan::none()
        } else {
            let mut p = FaultPlan::seeded(rng.gen())
                .with_drops(rng.gen_range(0.0..0.25))
                .with_flips(rng.gen_range(0.0..0.02));
            for _ in 0..rng.gen_range(0..2u32) {
                p = p.with_crash(rng.gen_range(0..k), rng.gen_range(0..30));
            }
            p
        };

        let total_tokens: usize = tokens.iter().map(Vec::len).sum();
        let fault_free = plan.is_none();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut sink = NoopSink;
            solve_token_packaging_robust(&g, &tokens, &ids, tau, model, &plan, 4, &mut sink)
        }));
        match outcome {
            Err(_) => report.panics += 1,
            Ok(Err(e)) => {
                report.typed_errors += 1;
                // The invalid-input regimes must map to their variants.
                if tau == 0 && e != PackagingError::ZeroTau {
                    report.invariant_violations += 1;
                }
                if tau != 0
                    && expect_mismatch
                    && !matches!(e, PackagingError::LengthMismatch { .. })
                {
                    report.invariant_violations += 1;
                }
            }
            Ok(Ok((result, _stats))) => {
                report.ok += 1;
                if result.packages.iter().any(|(_, p)| p.len() != tau) {
                    report.invariant_violations += 1;
                }
                if fault_free {
                    let packaged: usize = result.packages.iter().map(|(_, p)| p.len()).sum();
                    if packaged + result.discarded != total_tokens || result.discarded >= tau {
                        report.invariant_violations += 1;
                    }
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rs_fuzz_smoke() {
        fuzz_rs_codec(0xD157_0001, 400).assert_contract();
    }

    #[test]
    fn justesen_fuzz_smoke() {
        fuzz_justesen_codec(0xD157_0002, 200).assert_contract();
    }

    #[test]
    fn packaging_fuzz_smoke() {
        fuzz_token_packaging(0xD157_0003, 60).assert_contract();
    }

    #[test]
    fn fuzz_is_deterministic() {
        assert_eq!(fuzz_rs_codec(42, 100), fuzz_rs_codec(42, 100));
        assert_eq!(fuzz_justesen_codec(42, 50), fuzz_justesen_codec(42, 50));
    }
}
