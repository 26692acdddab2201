//! Host-speed correction of the benchmark's host times.
//!
//! On a shared virtual machine the processor's speed for this process
//! moves by up to 2× within a second and between minutes, while the
//! simulator's work stays the same. A fixed probe kernel of hash-map
//! inserts and a sort, run between units on the same CPU, slows down with
//! the simulator's hash-map heavy drive loop. Each stretch of work between
//! two probes is scaled by [`REFERENCE`] over the median time of the
//! probes around it, which gives the stretch's host time at the reference
//! speed.

use crate::spans::Tracer;
use std::collections::HashMap;
use std::collections::hash_map::DefaultHasher;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The probe's median time on the machine the bounds were set on (a
/// 2-vCPU Intel Xeon virtual machine), so that scaled times read as that
/// machine's host times at its typical speed.
pub const REFERENCE: Duration = Duration::from_micros(175);

/// Keys inserted per probe.
const PROBE_INSERTS: u64 = 3000;

type Table = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// The probe kernel and the buffers it reuses. The probe allocates
/// nothing, so its time does not depend on the state of the process's
/// heap, which the workloads leave different from round to round.
struct Probe {
    table: Table,
    keys: Vec<u64>,
}

impl Probe {
    /// The buffers, sized and touched once.
    fn new() -> Probe {
        let mut probe = Probe {
            table: Table::with_capacity_and_hasher(PROBE_INSERTS as usize, Default::default()),
            keys: Vec::with_capacity(PROBE_INSERTS as usize),
        };
        probe.run();
        probe
    }

    /// Runs the kernel once and returns its host time: values inserted
    /// into a hash map under pseudo-random keys, then the keys sorted. The
    /// hasher and the key sequence are fixed, so every probe does the same
    /// work.
    fn run(&mut self) -> Duration {
        let start = Instant::now();
        self.table.clear();
        let mut x: u64 = 0x1234_5678;
        for i in 0..PROBE_INSERTS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *self.table.entry(x >> 40).or_default() += i;
        }
        self.keys.clear();
        self.keys.extend(self.table.keys().copied());
        self.keys.sort_unstable();
        black_box(self.keys[self.keys.len() / 2]);
        start.elapsed()
    }
}

/// One probe on fresh buffers, for a stretch timed without a [`Clock`].
pub fn probe() -> Duration {
    Probe::new().run()
}

/// `work` at the reference speed, given the probe time around it.
pub fn scale(work: Duration, probe: Duration) -> Duration {
    if probe.is_zero() {
        return work;
    }
    work.mul_f64(REFERENCE.as_secs_f64() / probe.as_secs_f64())
}

/// Probes on each side of a stretch whose median gives the host's speed
/// during it: the two that bracket it and two more on either side, so that
/// one probe slowed by an interrupt does not rescale its neighbours.
const WINDOW: usize = 3;

/// `stretches` at the reference speed, where `probes[i]` ran just before
/// `stretches[i]` and `probes[i + 1]` just after it.
fn scaled(stretches: &[Duration], probes: &[Duration]) -> Duration {
    stretches
        .iter()
        .enumerate()
        .map(|(i, &work)| {
            let lo = (i + 1).saturating_sub(WINDOW);
            let hi = (i + 1 + WINDOW).min(probes.len());
            scale(work, median(&probes[lo.min(hi)..hi]))
        })
        .sum()
}

fn median(xs: &[Duration]) -> Duration {
    let mut v = xs.to_vec();
    v.sort_unstable();
    match v.len() {
        0 => Duration::ZERO,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2,
    }
}

/// Times a sequence of work stretches, probing the host's speed before,
/// between and after them. Probe time counts in neither total.
pub struct Clock {
    tracer: Option<Arc<Tracer>>,
    probe: Probe,
    mark: Instant,
    probes: Vec<Duration>,
    stretches: Vec<Duration>,
}

impl Clock {
    /// Probes once and starts the first stretch. With a tracer, each
    /// probe is recorded as a `speed.probe` span, so it counts in no
    /// layer's self time.
    pub fn start(tracer: Option<&Arc<Tracer>>) -> Clock {
        let tracer = tracer.cloned();
        let mut probe = Probe::new();
        let first = timed_probe(&mut probe, tracer.as_deref());
        Clock {
            tracer,
            probe,
            mark: Instant::now(),
            probes: vec![first],
            stretches: Vec::new(),
        }
    }

    /// Ends the current stretch, probes, and starts the next one.
    pub fn lap(&mut self) {
        self.stretches.push(self.mark.elapsed());
        let probe = timed_probe(&mut self.probe, self.tracer.as_deref());
        self.probes.push(probe);
        self.mark = Instant::now();
    }

    /// Host time of the ended stretches.
    pub fn raw(&self) -> Duration {
        self.stretches.iter().sum()
    }

    /// The ended stretches at the reference speed.
    pub fn scaled(&self) -> Duration {
        scaled(&self.stretches, &self.probes)
    }
}

/// Pins the calling thread, and every thread it starts afterwards, to the
/// CPU it is running on, so that the `sweep` worker runs on the processor
/// the probes on the benchmark thread measure. Returns that CPU, or `None`
/// where pinning failed or is not supported.
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> Option<usize> {
    unsafe extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // A `cpu_set_t` of 1024 CPUs.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: the mask is a live, initialized `cpu_set_t`-sized buffer
    // and its size is passed with it; pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Pinning is only implemented on Linux.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> Option<usize> {
    None
}

fn timed_probe(probe: &mut Probe, tracer: Option<&Tracer>) -> Duration {
    let _span = tracer.map(|t| t.span("speed.probe", None));
    probe.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stretch_is_scaled_by_the_median_of_the_probes_around_it() {
        let ms = Duration::from_millis;
        let us = Duration::from_micros;
        let close = |a: Duration, b: Duration| (a.as_secs_f64() - b.as_secs_f64()).abs() < 1e-8;
        // Probes at twice the reference time: the host ran at half speed.
        let slow = REFERENCE * 2;
        assert!(close(scale(ms(10), slow), ms(5)));
        assert_eq!(scale(ms(10), Duration::ZERO), ms(10));
        // One probe slowed by an interrupt rescales nothing.
        let probes = [slow, slow, us(20_000), slow, slow, slow];
        assert!(close(scaled(&[ms(10); 5], &probes), ms(25)));
        // The window follows a change of speed.
        let mut probes = vec![REFERENCE; 8];
        probes.extend([slow; 8]);
        let work = vec![ms(10); 15];
        let s = scaled(&work, &probes);
        // The stretch between the last fast and the first slow probes sees
        // three of each.
        assert!(close(s, ms(10) * 7 + ms(10) * 2 / 3 + ms(5) * 7));
    }

    #[test]
    fn laps_add_up_and_probes_stay_out() {
        let mut clock = Clock::start(None);
        std::thread::sleep(Duration::from_millis(2));
        clock.lap();
        clock.lap();
        assert_eq!(clock.stretches.len(), 2);
        assert!(clock.raw() >= Duration::from_millis(2));
        assert!(clock.scaled() > Duration::ZERO);
    }
}
