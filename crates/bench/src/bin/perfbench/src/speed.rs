//! The machine-speed sampler behind the normalised host times.
//!
//! On a virtual machine that shares its host, the same pass takes from
//! 2.5 to 3.9 s of CPU time depending on the moment: other guests slow
//! the hardware the thread runs on, in episodes from seconds to minutes
//! long, so no median within a run removes them. A probe timed between
//! passes does not see the machine the pass saw; a probe that runs
//! *during* the pass does.
//!
//! [`Sampler::start`] pins the calling thread to the CPU it is on and
//! starts a second thread, pinned to the same CPU at the lowest
//! scheduling priority (nice 19), that repeats a fixed chunk of work and
//! adds up how many chunks it ran and their CPU time. The scheduler gives
//! it about 1.5 % of the CPU, in slices of a millisecond or so between the
//! main thread's, so its chunks sample the hardware at the same moments
//! as the pass, all through it. A pass's normalised time is its CPU time
//! × [`REFERENCE_CHUNK_S`] ÷ the mean CPU time of the chunks that ran
//! during it: its host time at a fixed reference speed.
//!
//! A chunk sorts a few thousand keys, mixes integers and chases pointers
//! through 256 KiB: memory traffic, arithmetic and cache latency, which
//! slow by different amounts in different episodes. It uses only the
//! standard library and this file, so no change to the repository's
//! crates can speed it up or slow it down; only the machine (and the
//! toolchain, which parent and change share) can.

use crate::gen::SplitMix64;
use crate::report::cpu_timed;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A chunk's CPU seconds at the reference speed: its mean during passes
/// on a 2-vCPU Intel Xeon virtual machine.
pub const REFERENCE_CHUNK_S: f64 = 90e-6;

/// Fewest chunks that make a pass's own speed reading; a pass with fewer
/// (a `--smoke` pass lasts milliseconds) uses the run's mean so far.
const MIN_CHUNKS: u64 = 20;

/// Keys sorted, integer mixing steps and pointer-chase steps per chunk,
/// and the chase cycle's slots (4 bytes each).
const KEYS: usize = 2_000;
const MIXES: usize = 4_000;
const CHASE_STEPS: usize = 8_000;
const CHASE_SLOTS: usize = 1 << 16;

/// The sampler's running totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reading {
    chunks: u64,
    cpu_s: f64,
}

impl Reading {
    /// Mean CPU seconds of the chunks run since `earlier`, when there
    /// were at least [`MIN_CHUNKS`] of them.
    pub fn chunk_s_since(&self, earlier: Reading) -> Option<f64> {
        let chunks = self.chunks - earlier.chunks;
        (chunks >= MIN_CHUNKS).then(|| (self.cpu_s - earlier.cpu_s) / chunks as f64)
    }
}

/// The sampler thread; dropping it stops the thread and waits for it.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    totals: Arc<Mutex<Reading>>,
    thread: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Pins the calling thread to its current CPU and starts the sampler
    /// beside it; returns once the sampler has run [`MIN_CHUNKS`] chunks.
    pub fn start() -> Result<Self, String> {
        // SAFETY: no arguments; returns the CPU number or -1.
        let cpu = usize::try_from(unsafe { sched_getcpu() })
            .map_err(|_| "cannot read the current CPU".to_string())?;
        pin_to(cpu)?;
        let stop = Arc::new(AtomicBool::new(false));
        let totals = Arc::new(Mutex::new(Reading::default()));
        let (s, t) = (Arc::clone(&stop), Arc::clone(&totals));
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || {
            let ready = pin_to(cpu).and_then(|()| {
                // SAFETY: `gettid` takes no arguments; `setpriority` only
                // reads its integer arguments.
                let rc = unsafe { setpriority(PRIO_PROCESS, gettid(), 19) };
                (rc == 0)
                    .then_some(())
                    .ok_or_else(|| "cannot lower the sampler's priority".to_string())
            });
            let ok = ready.is_ok();
            let _ = ready_tx.send(ready);
            if ok {
                sample(&s, &t);
            }
        });
        let sampler = Self {
            stop,
            totals,
            thread: Some(thread),
        };
        ready_rx
            .recv()
            .map_err(|_| "the speed sampler did not start".to_string())??;
        let deadline = Instant::now() + Duration::from_secs(5);
        while sampler.read().chunks < MIN_CHUNKS {
            if Instant::now() > deadline {
                return Err("the speed sampler does not run".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(sampler)
    }

    pub fn read(&self) -> Reading {
        *self.totals.lock().expect(UNPOISONED)
    }

    /// Stops the sampler and waits for it; an error if it panicked.
    pub fn finish(mut self) -> Result<(), String> {
        self.stop_and_join()
    }

    fn stop_and_join(&mut self) -> Result<(), String> {
        self.stop.store(true, Ordering::Relaxed);
        match self.thread.take() {
            Some(t) => t
                .join()
                .map_err(|_| "the speed sampler panicked".to_string()),
            None => Ok(()),
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        // On the error paths out of a run; `finish` reports a panic.
        let _ = self.stop_and_join();
    }
}

const UNPOISONED: &str = "nothing panics while holding the sampler's totals";

/// The sampler thread's loop: chunks until `stop`.
fn sample(stop: &AtomicBool, totals: &Mutex<Reading>) {
    let mut rng = SplitMix64::stream(0, 0x05EE_DCA1);
    let keys: Vec<u64> = (0..KEYS).map(|_| rng.next_u64()).collect();
    // Sattolo's shuffle: one cycle through every slot.
    let mut next: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
    for i in (1..CHASE_SLOTS).rev() {
        next.swap(i, rng.below(i));
    }
    let mut n = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let Ok((out, cpu_s)) = cpu_timed(|| chunk(&keys, &next, n)) else {
            return;
        };
        black_box(out);
        n += 1;
        let mut t = totals.lock().expect(UNPOISONED);
        t.chunks += 1;
        t.cpu_s += cpu_s;
    }
}

/// One chunk of fixed work; `n` varies where the chase starts.
fn chunk(keys: &[u64], next: &[u32], n: u64) -> u64 {
    let mut sorted = black_box(keys).to_vec();
    sorted.sort_unstable();
    let mut mix = SplitMix64::stream(n, 2);
    let mut acc = 0u64;
    for _ in 0..MIXES {
        acc ^= mix.next_u64();
    }
    let mut p = (n % CHASE_SLOTS as u64) as u32;
    for _ in 0..CHASE_STEPS {
        p = next[p as usize];
    }
    sorted[0] ^ acc ^ u64::from(p)
}

/// Host CPU seconds rescaled to the reference speed, given the mean CPU
/// seconds of the sampler's chunks beside them.
pub fn normalised(cpu_s: f64, chunk_s: f64) -> f64 {
    cpu_s * REFERENCE_CHUNK_S / chunk_s
}

/// `which` for `setpriority`: a process, or on Linux one thread by id.
const PRIO_PROCESS: i32 = 0;

extern "C" {
    // From the C library the standard library already links.
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn setpriority(which: i32, who: i32, prio: i32) -> i32;
    fn gettid() -> i32;
}

/// Pins the calling thread to `cpu`.
fn pin_to(cpu: usize) -> Result<(), String> {
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    *mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("CPU {cpu} is beyond the affinity mask"))? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a valid `cpu_set_t` of the size passed, read only
    // for the duration of the call; pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0)
        .then_some(())
        .ok_or_else(|| format!("cannot pin to CPU {cpu}"))
}
