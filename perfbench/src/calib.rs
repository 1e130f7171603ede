//! Host-speed calibration of the timed phases.
//!
//! The benchmark runs on shared virtual machines whose cores slow down
//! and speed up with other tenants' load: on a 2-vCPU Xeon VM the same
//! op took 140 ms in one 20-second stretch and 380 ms in another. A
//! wall-clock median over one run then measures the host's state as
//! much as the program.
//!
//! So every timed phase also times a fixed kernel — code of the
//! benchmark's own, which no change to the program can speed up or slow
//! down — every [`EVERY_S`] seconds on the thread that runs the ops.
//! Each op's time is scaled by `REF_MS ÷ kernel time`, with the kernel
//! time a rolling median of the samples around the op. The kernel is
//! throughput-bound integer mixing plus dependent reads from an
//! L1-resident table, the two kinds of work that slowed most like the
//! ops when the host was loaded; a latency-bound chain alone, a
//! DRAM-bound scan, or the kernel run on every core at once tracked the
//! ops worse. Calibration time is kept out of every measured duration.
//! The raw wall-clock figures are printed next to the scaled ones.

use std::time::{Duration, Instant};

/// Seconds between kernel samples in a timed phase.
pub const EVERY_S: f64 = 0.1;
/// Kernel samples on each side of an op that its scale takes the
/// median of.
const HALF_WINDOW: usize = 7;
/// About the kernel's time on an unloaded host (a 2.1 GHz Xeon VM), in
/// ms; a scaled duration is the duration at that speed.
pub const REF_MS: f64 = 1.2;
/// Iterations of each half of the kernel.
const ITERS: u64 = 200_000;
/// The L1-resident table the kernel reads from (32 KiB).
const TABLE: usize = 4096;

/// Kernel samples taken through one timed phase.
#[derive(Debug)]
pub struct Calibrator {
    last: Instant,
    samples: Vec<f64>,
    spent: Duration,
}

impl Calibrator {
    /// Takes the first sample; room for `capacity` samples is reserved
    /// up front, so sampling does not allocate inside a timed phase.
    pub fn start(capacity: usize) -> Calibrator {
        let mut c = Calibrator {
            last: Instant::now(),
            samples: Vec::with_capacity(capacity),
            spent: Duration::ZERO,
        };
        c.sample();
        c
    }

    /// Samples the kernel if [`EVERY_S`] has passed since the last
    /// sample; returns the index of the interval the next op falls in.
    pub fn tick(&mut self) -> usize {
        if self.last.elapsed().as_secs_f64() >= EVERY_S {
            self.sample();
        }
        self.samples.len() - 1
    }

    /// Takes a last sample, closing the last interval.
    pub fn finish(&mut self) {
        self.sample();
    }

    /// Time spent in the kernel, to be left out of measured durations.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// The factor that scales a duration measured in `interval` to the
    /// reference speed.
    pub fn scale(&self, interval: usize) -> f64 {
        let lo = interval.saturating_sub(HALF_WINDOW - 1);
        let hi = (interval + HALF_WINDOW + 1).min(self.samples.len());
        REF_MS / crate::stats::quantile(&self.samples[lo..hi], 0.5)
    }

    /// Samples that fit in `seconds` of a timed phase, with room to
    /// spare.
    pub fn capacity_for(seconds: f64) -> usize {
        (seconds / EVERY_S * 2.0).min(1e6) as usize + 16
    }

    /// Heap bytes the calibrator holds (benchmark bookkeeping).
    pub fn heap_bytes(&self) -> usize {
        self.samples.capacity() * std::mem::size_of::<f64>()
    }

    /// The median kernel time over the phase, in ms.
    pub fn median_ms(&self) -> f64 {
        crate::stats::quantile(&self.samples, 0.5)
    }

    fn sample(&mut self) {
        let t = Instant::now();
        self.samples.push(kernel_ms());
        self.spent += t.elapsed();
        self.last = Instant::now();
    }
}

/// One run of the kernel on this thread, in ms.
fn kernel_ms() -> f64 {
    // On the stack: the kernel must not show in the heap metrics.
    let mut table = [0u64; TABLE];
    for (i, t) in table.iter_mut().enumerate() {
        *t = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44;
    }
    let t = Instant::now();
    // Eight independent mixing chains: bound by the core's throughput.
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..ITERS {
        for v in &mut lanes {
            *v = (*v ^ (*v >> 29))
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .wrapping_add(i);
        }
    }
    std::hint::black_box(lanes);
    // Dependent reads at pseudo-random places in the table.
    let (mut j, mut acc) = (1u64, 0u64);
    for _ in 0..ITERS {
        j = j
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407 ^ acc);
        acc = acc.wrapping_add(table[((j >> 30) as usize) & (TABLE - 1)]);
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_reference_over_the_rolling_median() {
        // A host at reference speed, then one twice as slow, with one
        // outlier sample in each stretch.
        let mut samples = vec![1.0; 20];
        samples[10..].fill(2.0);
        samples[3] = 8.0;
        samples[15] = 8.0;
        let c = Calibrator {
            last: Instant::now(),
            samples,
            spent: Duration::ZERO,
        };
        assert_eq!(c.scale(0), REF_MS);
        assert_eq!(c.scale(19), REF_MS / 2.0);
    }

    #[test]
    fn ticks_advance_only_after_the_interval() {
        let mut c = Calibrator::start(4);
        assert_eq!(c.tick(), 0);
        c.finish();
        assert_eq!(c.tick(), 1);
        assert!(c.spent() > Duration::ZERO && c.median_ms() > 0.0);
    }
}
