//! Host-speed calibration.
//!
//! On a shared host the same instance runs up to ~2.5× slower for phases
//! of a fraction of a second to minutes, and thread CPU time slows with it,
//! so no clock removes the effect. The benchmark therefore times a fixed
//! reference kernel of its own right before and right after every timed
//! segment, and rescales the segment to the speed at which the kernel runs
//! in [`REFERENCE_MS`]:
//!
//! ```text
//! normalized = measured × REFERENCE_MS / mean(kernel before, kernel after)
//! ```
//!
//! The kernel is the benchmark's own code and never calls the program, so
//! a change to the program moves the measured segment and not the
//! kernel: a program that does more work reads slower, a host that runs
//! slower does not.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel milliseconds at the reference speed: a fixed constant near the
/// kernel's time on the 2-vCPU reference box (Intel Xeon, 2.0 GHz) in its
/// fastest phases. It only sets the scale of normalized times.
pub const REFERENCE_MS: f64 = 12.0;

/// A kernel phase: words in its working set and steps taken over it.
type Phase = (usize, u64);

/// A phase over 2 MiB, beyond the per-core caches: it slows when
/// neighbours contend for the shared cache and memory, as well as with the
/// processor.
const SHARED: Phase = (1 << 18, 200_000);

/// A phase over 64 KiB, within the per-core caches: it slows only with the
/// processor.
const CORE: Phase = (1 << 13, 200_000);

/// Which host slowdowns a workload's runs feel, and so which phases its
/// kernel runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sensitivity {
    /// Processor and shared-cache contention: the simulator, whose event
    /// queue and message metrics spill out of the per-core caches.
    Shared,
    /// Processor only: the pool on a small topology, whose working set
    /// stays in the per-core caches. Calibrating it with the shared-cache
    /// phase too over-corrected it in contended phases.
    Core,
    /// Shared-cache contention only: the model checker, whose state clones
    /// and hash-set inserts slow about as much as the shared-cache phase in
    /// contended phases, while the per-core phase barely moves. Adding the
    /// per-core phase more than doubled the spread of its calibrated times
    /// from one execution to the next.
    SharedOnly,
}

impl Sensitivity {
    fn phases(self) -> &'static [Phase] {
        match self {
            Sensitivity::Shared => &[SHARED, CORE],
            Sensitivity::Core => &[CORE, CORE],
            Sensitivity::SharedOnly => &[SHARED, SHARED],
        }
    }
}

/// Times the reference kernel around measured segments.
pub struct Calibrator {
    phases: &'static [Phase],
    buf: Vec<u64>,
    heap: BinaryHeap<u64>,
    /// Kernel milliseconds of the latest slice.
    last_ms: f64,
}

impl Calibrator {
    /// A calibrator that has timed its first slices (the first one also
    /// faults the working set in).
    pub fn new(sensitivity: Sensitivity) -> Self {
        let phases = sensitivity.phases();
        let mut c = Calibrator {
            phases,
            buf: vec![1; phases.iter().map(|p| p.0).max().unwrap_or(1)],
            heap: BinaryHeap::with_capacity(2048),
            last_ms: 0.0,
        };
        c.slice();
        c.slice();
        c
    }

    /// Runs the kernel once and returns its milliseconds.
    fn slice(&mut self) -> f64 {
        let started = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        for &(words, steps) in self.phases {
            // Random reads and writes interleaved with binary-heap pushes
            // and pops, the event-queue pattern of the simulator.
            self.heap.clear();
            for i in 0..steps {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let j = (x as usize) % words;
                self.buf[j] = self.buf[j].wrapping_add(i);
                acc = acc.wrapping_add(self.buf[j.wrapping_mul(7) % words]);
                self.heap.push(x & 0xFFFF);
                if self.heap.len() > 1024 {
                    acc ^= self.heap.pop().unwrap_or(0);
                }
            }
        }
        black_box(acc);
        self.last_ms = started.elapsed().as_secs_f64() * 1e3;
        self.last_ms
    }

    /// Starts timing a segment; the latest slice is its "before" speed.
    pub fn start(&self) -> Stopwatch {
        Stopwatch {
            before_ms: self.last_ms,
            started: Instant::now(),
        }
    }

    /// Ends the segment `watch` started, then runs a kernel slice. Returns
    /// the segment's measured milliseconds and those milliseconds at the
    /// reference speed, from the mean of the slices just before and just
    /// after it.
    pub fn stop(&mut self, watch: Stopwatch) -> Measured {
        let raw_ms = watch.started.elapsed().as_secs_f64() * 1e3;
        let after_ms = self.slice();
        let kernel_ms = (watch.before_ms + after_ms) / 2.0;
        Measured {
            raw_ms,
            ms: raw_ms * REFERENCE_MS / kernel_ms,
        }
    }
}

/// A segment being timed.
pub struct Stopwatch {
    before_ms: f64,
    started: Instant,
}

/// One timed segment.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Measured {
    /// Wall milliseconds as measured.
    pub raw_ms: f64,
    /// Wall milliseconds rescaled to the reference speed.
    pub ms: f64,
}

impl Measured {
    /// Reference over measured speed: what times measured in this segment
    /// are multiplied by.
    pub fn speed(&self) -> f64 {
        if self.raw_ms > 0.0 {
            self.ms / self.raw_ms
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_segment_as_long_as_the_kernel_reads_as_the_reference_time() {
        for sensitivity in [
            Sensitivity::Shared,
            Sensitivity::Core,
            Sensitivity::SharedOnly,
        ] {
            let mut cal = Calibrator::new(sensitivity);
            let mut twin = Calibrator::new(sensitivity);
            let watch = cal.start();
            twin.slice();
            let m = cal.stop(watch);
            // Loose: the host may change speed between the three slices.
            assert!((0.5..2.0).contains(&(m.ms / REFERENCE_MS)), "{m:?}");
            assert!((m.speed() * m.raw_ms - m.ms).abs() < 1e-9);
        }
    }
}
