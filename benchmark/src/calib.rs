//! Host-speed calibration: what makes wall-clock metrics repeat on a
//! shared host.
//!
//! The boxes this benchmark is accepted on are small guests of a busy
//! host. Their speed moves in steps that last from seconds to minutes: in
//! one recorded three-minute stretch a register-bound loop, a streaming
//! sum and a first-touch page sweep — none of them product code — all
//! became 25–40 % slower within ten seconds and stayed so. Every
//! wall-clock metric follows such a step, whatever the run measures and
//! however long it measures it, and ten runs that straddle one spread
//! further than any bound a regression gate could use.
//!
//! So every timed sample of an untraced run (a set-up, an op, a campaign
//! pass) lies between two *probes*: a fixed piece of work that lives in
//! this file, calls no product code, and is timed the same way. A probe's
//! *slowdown* is its time over the reference time of the same work
//! ([`REFERENCE_MS`], a quiet minute of the box the baseline was recorded
//! on); a sample's reported time is its wall time divided by the mean
//! slowdown of the probes around it — wall time at reference speed. A change to
//! the product cannot move the probes, so it shows in full; a step of the
//! host moves sample and probes together and mostly cancels. Raw wall
//! times are printed and recorded beside the calibrated ones.

use std::time::Instant;

/// Reference time (ms) of the two probe kernels — compute, stream — on the
/// box the baseline was recorded on (2-vCPU guest, Xeon 2.1 GHz): medians
/// over the probes of four quiet runs, one per workload (they agree to 3 %
/// across workloads). Every run prints the median slowdown of its probes
/// against these, so a drifted anchor shows.
pub const REFERENCE_MS: [f64; 2] = [19.5, 22.4];

/// Iterations of the register-bound kernel (four independent FMA chains).
const COMPUTE_ITERS: usize = 8_000_000;
/// Doubles the streaming kernel reads (32 MB: eight times the L2). The
/// buffer lives only as long as the probe — probes run between samples —
/// so it never adds to a sample's resident set.
const BUFFER_LEN: usize = 4 << 20;
/// Streaming passes over the buffer.
const STREAM_PASSES: usize = 6;

/// Times the two kernels once (ms): register-bound arithmetic, streaming
/// reads. (A third kernel, first touch of fresh pages, was tried and
/// dropped: its time depends on what the allocator and the page cache were
/// last asked to do, not only on the host.)
fn kernels_ms() -> [f64; 2] {
    let t = Instant::now();
    let mut x = [1.0_f64, 1.1, 1.2, 1.3];
    for _ in 0..COMPUTE_ITERS {
        for v in &mut x {
            *v = *v * 1.000_000_1 + 0.1;
        }
    }
    std::hint::black_box(x);
    let compute = t.elapsed().as_secs_f64() * 1e3;

    let mut buffer = vec![1.0_f64; BUFFER_LEN];
    std::hint::black_box(&mut buffer);
    let t = Instant::now();
    for _ in 0..STREAM_PASSES {
        std::hint::black_box(buffer.iter().sum::<f64>());
    }
    let stream = t.elapsed().as_secs_f64() * 1e3;
    [compute, stream]
}

/// The probes of one run, in the order they were taken.
#[derive(Debug, Default)]
pub struct Calibrator {
    /// Slowdown of every probe: mean over the kernels of time ÷ reference.
    slowdowns: Vec<f64>,
    /// Kernel times (ms) of every probe.
    kernels: Vec<[f64; 2]>,
    last: Option<Instant>,
}

impl Calibrator {
    /// Takes a probe.
    pub fn probe(&mut self) {
        let ms = kernels_ms();
        let slowdown = ms
            .iter()
            .zip(REFERENCE_MS)
            .map(|(ms, reference)| ms / reference)
            .sum::<f64>()
            / ms.len() as f64;
        self.slowdowns.push(slowdown);
        self.kernels.push(ms);
        self.last = Some(Instant::now());
    }

    /// Takes a probe unless the last one is younger than `seconds` (ops of
    /// a few milliseconds share their probes).
    pub fn probe_if_older(&mut self, seconds: f64) {
        if self
            .last
            .is_none_or(|at| at.elapsed().as_secs_f64() >= seconds)
        {
            self.probe();
        }
    }

    /// Probes taken so far. A sample notes this count when it starts: its
    /// bracket is the probe before (`count − 1`) and the next one taken.
    pub fn count(&self) -> usize {
        self.slowdowns.len()
    }

    /// Slowdown around a sample that started when [`count`](Self::count)
    /// read `started_at`: the mean of the (up to) two probes before it and
    /// two after it. Two on a side halve the jitter a 50 ms probe has of
    /// its own and still follow a slow spell of a few seconds.
    ///
    /// # Panics
    ///
    /// Panics unless a probe was taken before the sample and one after it.
    pub fn slowdown_around(&self, started_at: usize) -> f64 {
        assert!(
            0 < started_at && started_at < self.slowdowns.len(),
            "a sample lies between two probes"
        );
        let around =
            &self.slowdowns[started_at.saturating_sub(2)..self.slowdowns.len().min(started_at + 2)];
        around.iter().sum::<f64>() / around.len() as f64
    }

    /// Median time (ms) of each kernel over the run's probes — what a new
    /// [`REFERENCE_MS`] would be read from.
    pub fn kernel_medians_ms(&self) -> [f64; 2] {
        [0, 1].map(|k| {
            let times: Vec<f64> = self.kernels.iter().map(|ms| ms[k]).collect();
            crate::stats::median(&times)
        })
    }

    /// Every probe's slowdown.
    pub fn slowdowns(&self) -> &[f64] {
        &self.slowdowns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_is_calibrated_by_the_probes_around_it() {
        let mut cal = Calibrator {
            slowdowns: vec![1.0, 1.5],
            kernels: Vec::new(),
            last: None,
        };
        assert_eq!(cal.count(), 2);
        // A sample that started after probe 0 and ended before probe 1.
        assert_eq!(cal.slowdown_around(1), 1.25);
        cal.probe();
        assert_eq!(cal.count(), 3);
        assert!(cal.slowdowns()[2] > 0.0);
        // A fresh probe is younger than a minute: no new one.
        cal.probe_if_older(60.0);
        assert_eq!(cal.count(), 3);
        cal.probe_if_older(0.0);
        assert_eq!(cal.count(), 4);

        // Two probes on each side where the run has them.
        let cal = Calibrator {
            slowdowns: vec![9.0, 1.0, 1.2, 1.4, 1.6, 9.0],
            kernels: Vec::new(),
            last: None,
        };
        assert!((cal.slowdown_around(3) - 1.3).abs() < 1e-12);
        assert!((cal.slowdown_around(1) - (9.0 + 1.0 + 1.2) / 3.0).abs() < 1e-12);
    }
}
