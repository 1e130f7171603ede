//! The retained solve-every-word Justesen decoder, for differential
//! testing and benchmarking.
//!
//! This is the decoder [`JustesenCode::decode`] shipped with before it
//! learned to check before it solves: a brute-force scan over all `2^m`
//! inner codewords at every position, then a full Berlekamp–Welch solve
//! of every word, clean or not. It is kept, semantics frozen, as the
//! executable specification the fast decoder is fuzzed against
//! (`dut_testkit::fuzz::fuzz_justesen_codec`) and as the "before" rows
//! of the `ecc_decode` bench.
//!
//! Use [`JustesenCode::decode`] for real work.

use super::{get_bits, set_bits, JustesenCode};
use crate::rs_decode::{berlekamp_welch, DecodeError, ErrorUnit};
use crate::BinaryCode;

/// Decodes `received` under `code` with the reference decoder.
///
/// Results (messages and error values) match [`JustesenCode::decode`]
/// exactly; only the cost differs.
///
/// # Errors
///
/// Same conditions as [`JustesenCode::decode`].
pub fn decode(code: &JustesenCode, received: &[u64]) -> Result<Vec<u64>, DecodeError> {
    let field = &code.tables.field;
    let m = code.symbol_bits();
    if received.len() * 64 < code.output_bits() {
        return Err(DecodeError::WrongLength {
            expected: code.output_bits(),
            actual: received.len() * 64,
        });
    }
    let capacity = code.certified_correction_radius();
    // Inner decode: nearest Wozencraft codeword at each position.
    let mut symbols = Vec::with_capacity(code.n_outer);
    for i in 0..code.n_outer {
        let y1 = get_bits(received, 2 * i * m, m);
        let y2 = get_bits(received, (2 * i + 1) * m, m);
        let mult = field.alpha_pow(i);
        let mut best = 0u16;
        let mut best_cost = usize::MAX;
        for x in 0..field.size() {
            let x = x as u16;
            let cost =
                (x ^ y1).count_ones() as usize + (field.mul(mult, x) ^ y2).count_ones() as usize;
            if cost < best_cost {
                best = x;
                best_cost = cost;
            }
        }
        symbols.push(best);
    }
    // Outer decode at the same points the encoder evaluated.
    let points: Vec<u16> = (0..code.n_outer).map(|i| field.alpha_pow(i)).collect();
    let message = berlekamp_welch(field, &points, &symbols, code.k_outer).ok_or(
        DecodeError::BeyondCapacity {
            capacity,
            unit: ErrorUnit::Bits,
        },
    )?;
    let mut out = vec![0u64; code.input_bits().div_ceil(64)];
    for (i, &s) in message.iter().enumerate() {
        set_bits(&mut out, i * m, m, s);
    }
    Ok(out)
}
