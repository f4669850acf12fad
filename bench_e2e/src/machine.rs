//! What the machine can do, measured in the same run as the workload:
//! the reference kernel that tells a quiet machine from a busy one, and
//! the ceilings the dG kernels are held against (single-thread peak FMA
//! rate in f64 and f32, STREAM triad bandwidth on all cores).

use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use crate::catalog::Metrics;
use crate::harness::wall;
use crate::stats::min;

const MIB: usize = 1 << 20;

/// Last-level cache used when the kernel does not report one.
const FALLBACK_LLC: usize = 32 * MIB;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size of the largest cache level of cpu0, in bytes.
fn llc_bytes() -> usize {
    (0..8)
        .filter_map(|i| {
            let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
            let text = std::fs::read_to_string(path).ok()?;
            let text = text.trim();
            let (digits, scale) = match text.as_bytes().last()? {
                b'K' => (&text[..text.len() - 1], 1024),
                b'M' => (&text[..text.len() - 1], MIB),
                _ => (text, 1),
            };
            Some(digits.parse::<usize>().ok()? * scale)
        })
        .max()
        .unwrap_or(FALLBACK_LLC)
}

/// Most memory the three triad arrays may take. Each must be four times
/// the last-level cache; on a machine whose cache makes that larger (the
/// reference VM reports 260 MiB, so 3.0 GiB, whose page faults alone
/// cost 3 to 27 s a run) the bandwidth row is left out.
const TRIAD_BUDGET: usize = 1024 * MIB;

/// The reference kernel: 100 M register-resident FMAs, then five STREAM
/// triad passes over three 4 MiB arrays (beyond L2), on as many threads
/// at once as the workload keeps busy. It shares no code with the stack,
/// so a change to the stack cannot move it.
///
/// The benchmark's two vCPUs share a host: for minutes at a time
/// everything, the fastest operation of a run included, takes up to
/// twice as long, which no statistic over one 20 s run can remove. The
/// harness times this kernel before and after every round to tell the
/// quiet rounds from the slow ones; see `harness::Agg::floors`.
pub struct Reference {
    own: ReferenceArrays,
    /// One per further thread: `(go, done)` channels and the handle.
    helpers: Vec<(Sender<()>, Receiver<()>, JoinHandle<()>)>,
}

/// The reference kernel's wall on the quiet reference machine (two vCPUs
/// of a 2.1 GHz Xeon).
pub const REFERENCE_NOMINAL_S: f64 = 0.0066;

const REFERENCE_FMAS: usize = 100_000_000;
const REFERENCE_ARRAY_LEN: usize = 512 * 1024;
const REFERENCE_PASSES: usize = 5;

struct ReferenceArrays([Vec<f64>; 3]);

impl ReferenceArrays {
    fn new() -> Self {
        let len = REFERENCE_ARRAY_LEN;
        ReferenceArrays([vec![0.5; len], vec![1.5; len], vec![2.5; len]])
    }

    fn run(&mut self) {
        black_box(fma_chain::<f64>(REFERENCE_FMAS));
        let [a, b, c] = &mut self.0;
        for _ in 0..REFERENCE_PASSES {
            triad(a, b, c, black_box(3.0));
        }
        black_box(a);
    }
}

impl Reference {
    /// Helper threads live as long as the `Reference`, and every array
    /// is touched here: the run's peak resident size holds exactly
    /// `bytes()` of reference state from the first round on.
    pub fn new(threads: usize) -> Self {
        let helpers = (1..threads)
            .map(|_| {
                let (go, start) = channel::<()>();
                let (finished, done) = channel::<()>();
                let handle = std::thread::spawn(move || {
                    let mut arrays = ReferenceArrays::new();
                    while start.recv().is_ok() {
                        arrays.run();
                        if finished.send(()).is_err() {
                            break;
                        }
                    }
                });
                (go, done, handle)
            })
            .collect();
        Reference {
            own: ReferenceArrays::new(),
            helpers,
        }
    }

    pub fn bytes(&self) -> usize {
        (1 + self.helpers.len()) * 3 * 8 * REFERENCE_ARRAY_LEN
    }

    /// Wall seconds of the kernel on all its threads at once: the fastest
    /// of five back-to-back runs, so that a burst of contention on the
    /// kernel alone is not mistaken for a slower machine.
    pub fn floor_s(&mut self) -> f64 {
        min((0..5).map(|_| {
            wall(|| {
                for (go, _, _) in &self.helpers {
                    go.send(()).expect("reference helper is alive");
                }
                self.own.run();
                for (_, done, _) in &self.helpers {
                    done.recv().expect("reference helper is alive");
                }
            })
            .1
        }))
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        for (go, done, handle) in self.helpers.drain(..) {
            // Closing `go` ends the helper's loop.
            drop((go, done));
            let _ = handle.join();
        }
    }
}

fn triad(a: &mut [f64], b: &[f64], c: &[f64], s: f64) {
    for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
        *x = y + s * z;
    }
}

/// Independent accumulator chains, enough to cover the FMA latency of
/// two pipes at any vector width the compiler picks.
const CHAINS: usize = 10;
/// Bytes of one accumulator: a full 512-bit vector of either type.
const ACC_BYTES: usize = 64;

/// `iters` rounds of fused multiply-adds on `CHAINS` register-resident
/// vectors; returns one lane so the work cannot be dropped.
fn fma_chain<T: Fma>(iters: usize) -> T {
    let mut acc = [[T::HALF; 16]; CHAINS];
    let lanes = ACC_BYTES / std::mem::size_of::<T>();
    let (a, b) = (black_box(T::A), black_box(T::B));
    for _ in 0..iters / (CHAINS * lanes) {
        for chain in acc.iter_mut() {
            for x in chain[..lanes].iter_mut() {
                *x = x.fma(a, b);
            }
        }
    }
    black_box(acc)[0][0]
}

trait Fma: Copy {
    const HALF: Self;
    const A: Self;
    const B: Self;
    fn fma(self, a: Self, b: Self) -> Self;
}

impl Fma for f64 {
    const HALF: f64 = 0.5;
    const A: f64 = 0.999_999;
    const B: f64 = 1.0e-6;
    fn fma(self, a: f64, b: f64) -> f64 {
        self.mul_add(a, b)
    }
}

impl Fma for f32 {
    const HALF: f32 = 0.5;
    const A: f32 = 0.999_999;
    const B: f32 = 1.0e-6;
    fn fma(self, a: f32, b: f32) -> f32 {
        self.mul_add(a, b)
    }
}

/// Single-thread Gflop/s of `fma_chain`, best of five.
fn peak_fma<T: Fma>() -> f64 {
    let fmas = 32_000_000;
    let best = min((0..5).map(|_| wall(|| black_box(fma_chain::<T>(fmas))).1));
    2.0 * fmas as f64 / best / 1e9
}

/// STREAM triad `a = b + s*c` over `threads` threads, each array
/// `len` f64 long; GB/s counting the three arrays once (best of three).
fn triad_gbs(len: usize, threads: usize) -> f64 {
    let mut a = vec![0.0f64; len];
    let b = vec![1.5f64; len];
    let c = vec![2.5f64; len];
    let s = black_box(3.0);
    let chunk = len.div_ceil(threads);
    // The first pass also faults the pages of `a` in; it is not the best.
    let best = min((0..3).map(|_| {
        let parts = a
            .chunks_mut(chunk)
            .zip(b.chunks(chunk))
            .zip(c.chunks(chunk));
        wall(|| {
            std::thread::scope(|scope| {
                for ((a, b), c) in parts {
                    scope.spawn(move || triad(a, b, c, s));
                }
            })
        })
        .1
    }));
    black_box(&a);
    (3 * len * 8) as f64 / best / 1e9
}

/// Measure the `machine.*` rows and, from them, `dg.roof_frac` for a
/// workload on `threads` threads. The bandwidth row is measured only
/// where a roofline needs it (the workload reported its flops per byte)
/// and only within `TRIAD_BUDGET`; otherwise it stays zero, and with it
/// `dg.roof_frac`, leaving `dg.flops_per_byte` as the kernel's figure.
pub fn measure(m: &mut Metrics, threads: usize) {
    m.set("machine.nproc", nproc() as f64);
    m.set("machine.peak_fma_gflops_f64", peak_fma::<f64>());
    m.set("machine.peak_fma_gflops_f32", peak_fma::<f32>());
    let llc = llc_bytes();
    m.set("machine.llc_mib", (llc / MIB) as f64);
    let array = 4 * llc;
    if m.get("dg.flops_per_byte") > 0.0 && 3 * array <= TRIAD_BUDGET {
        m.set("machine.triad_array_mib", (array / MIB) as f64);
        m.set("machine.triad_gbs", triad_gbs(array / 8, nproc()));
    }
    roofline(m, threads);
}

/// `dg.roof_frac`: the achieved flop rate over the roofline bound, the
/// lower of peak compute (per thread used) and bandwidth × flops per
/// computed byte. Needs the `machine.*` rows and `dg.gflops`.
fn roofline(m: &mut Metrics, threads: usize) {
    let (gflops, intensity) = (m.get("dg.gflops"), m.get("dg.flops_per_byte"));
    let bandwidth = m.get("machine.triad_gbs");
    if gflops == 0.0 || bandwidth == 0.0 {
        return;
    }
    let peak = if m.get("dg.bytes_per_value") == 4.0 {
        m.get("machine.peak_fma_gflops_f32")
    } else {
        m.get("machine.peak_fma_gflops_f64")
    };
    let roof = (peak * threads as f64).min(bandwidth * intensity);
    m.set("dg.roof_frac", gflops / roof);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::PER_LAYER;

    #[test]
    fn roofline_takes_the_lower_bound() {
        let mut m = Metrics::new(PER_LAYER);
        m.set("dg.gflops", 2.0);
        m.set("dg.flops_per_byte", 0.5);
        m.set("machine.triad_gbs", 10.0);
        m.set("machine.peak_fma_gflops_f64", 20.0);
        roofline(&mut m, 2);
        // memory roof 5 Gflop/s < compute roof 40 Gflop/s
        assert_eq!(m.get("dg.roof_frac"), 0.4);
        m.set("dg.flops_per_byte", 100.0);
        roofline(&mut m, 2);
        assert_eq!(m.get("dg.roof_frac"), 0.05);
    }

    #[test]
    fn triad_and_fma_report_positive_rates() {
        assert!(triad_gbs(1 << 16, 2) > 0.0);
        assert!(peak_fma::<f64>() > 0.0 && peak_fma::<f32>() > 0.0);
        assert!(llc_bytes() >= MIB);
    }
}
