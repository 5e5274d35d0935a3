//! What the host did to the run: CPU stolen by the hypervisor, process CPU
//! time and peak memory, read from `/proc`, and the window arithmetic that
//! keeps disturbed seconds out of the reported numbers.

use std::fs;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// A 1 s window with more than this share of CPU stolen is discarded: in
/// the sizing probe 27 % steal moved p50 from 3.55 to 5.6 ms on identical
/// code.
pub const MAX_STEAL: f64 = 0.05;

/// CPU ticks from one line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostCpu {
    pub total: u64,
    pub steal: u64,
}

/// Parses the line of CPU `cpu`, or the aggregate `cpu` line when `None`
/// (`user nice system idle iowait irq softirq steal …`); guest columns are
/// already included in user/nice.
pub fn parse_host_cpu(stat: &str, cpu: Option<usize>) -> Option<HostCpu> {
    let label = cpu.map_or("cpu".to_string(), |n| format!("cpu{n}"));
    let cols: Vec<u64> = stat
        .lines()
        .find_map(|l| l.strip_prefix(&label)?.strip_prefix(' '))?
        .split_whitespace()
        .take(8)
        .map(|c| c.parse().ok())
        .collect::<Option<_>>()?;
    Some(HostCpu {
        total: cols.iter().sum(),
        steal: *cols.get(7)?,
    })
}

/// Parses `VmHWM` (peak resident set) from `/proc/self/status`, in MiB.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Ticks of the CPU the run is pinned to (of all CPUs when it is not):
/// time stolen from the other one does not slow this run down, and in the
/// aggregate a CPU that is robbed of a tenth shows as a twentieth.
pub fn host_cpu() -> HostCpu {
    let pinned = Some(PINNED_TO.load(Relaxed)).filter(|&cpu| cpu != NOT_PINNED);
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_host_cpu(&s, pinned))
        .unwrap_or_default()
}

/// CPU time this process has used, in ms: the sum of its threads'
/// `schedstat` on-CPU time. Nanosecond resolution, where the tick counters
/// of `/proc/self/stat` would quantise a 1 s window of a 60 fps pipeline —
/// some 14 ticks of CPU — to 7 %. Threads must outlive the interval
/// measured: an exited thread takes its time out of the sum. 0 where the
/// kernel keeps no schedstats.
pub fn self_cpu_ms() -> f64 {
    let on_cpu_ns = |task: fs::DirEntry| -> Option<u64> {
        let stat = fs::read_to_string(task.path().join("schedstat")).ok()?;
        stat.split_whitespace().next()?.parse().ok()
    };
    let total_ns: u64 = fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .filter_map(|task| on_cpu_ns(task.ok()?))
        .sum();
    total_ns as f64 / 1e6
}

pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_peak_rss_mb(&s))
        .unwrap_or(0.0)
}

/// CPUs the process was given, counted before [`pin_to_one_cpu`] took all
/// but one away.
pub fn nproc() -> usize {
    match CPUS_GIVEN.load(Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
}

static CPUS_GIVEN: AtomicUsize = AtomicUsize::new(0);
const NOT_PINNED: usize = usize::MAX;
static PINNED_TO: AtomicUsize = AtomicUsize::new(NOT_PINNED);

/// Words in the kernel's `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

// std links the C library; these are its declarations.
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it starts afterwards, to
/// the lowest-numbered CPU it may run on; returns that CPU. Call it before
/// anything is spawned.
///
/// The runner is a VM with two vCPUs of a shared host. Where the host runs
/// those two relative to each other depends on what the VM did in the last
/// minute: straight after 15 s of load on both, `baseline_remote`'s p50 was
/// 6.2–6.7 ms and the classifier took 405 µs a frame; after 15 s of idling,
/// 5.3–5.4 ms and 290 µs — same binary, same seed, no CPU reported stolen,
/// and a single-threaded probe ran equally fast in both states. So a run's
/// numbers depended on which run came before it. On one CPU every wake-up
/// and every cache line stays on that CPU and the order of runs stops
/// mattering. What it costs: nothing here shows two workers running at the
/// same time (the README lists that as unverified on this runner anyway).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is `size_of_val(&mask)` writable bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let given: u32 = mask.iter().map(|w| w.count_ones()).sum();
    let word = mask.iter().position(|&w| w != 0)?;
    let bit = mask[word].trailing_zeros() as usize;
    let mut one = [0u64; CPU_SET_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is `size_of_val(&one)` readable bytes.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return None;
    }
    let cpu = word * 64 + bit;
    CPUS_GIVEN.store(given as usize, Relaxed);
    PINNED_TO.store(cpu, Relaxed);
    Some(cpu)
}

/// One boundary between measurement windows.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// Benchmark clock, ns.
    pub at_ns: u64,
    pub host: HostCpu,
    pub self_cpu_ms: f64,
}

impl Mark {
    pub fn now() -> Self {
        Mark {
            at_ns: crate::trace::now_ns(),
            host: host_cpu(),
            self_cpu_ms: self_cpu_ms(),
        }
    }
}

/// The interval between two marks.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub start_ns: u64,
    pub end_ns: u64,
    pub cpu_ms: f64,
    pub steal: f64,
}

impl Window {
    pub fn between(a: &Mark, b: &Mark) -> Self {
        let total = b.host.total.saturating_sub(a.host.total);
        let steal = b.host.steal.saturating_sub(a.host.steal);
        Window {
            start_ns: a.at_ns,
            end_ns: b.at_ns,
            cpu_ms: b.self_cpu_ms - a.self_cpu_ms,
            steal: if total == 0 {
                0.0
            } else {
                steal as f64 / total as f64
            },
        }
    }

    pub fn clean(&self) -> bool {
        self.steal <= MAX_STEAL
    }

    /// The part of `samples` — `(done, latency)` in ns, sorted by `done` —
    /// that was done inside this window.
    pub fn samples<'a>(&self, samples: &'a [(u64, u64)]) -> &'a [(u64, u64)] {
        let from = samples.partition_point(|&(done, _)| done < self.start_ns);
        let to = samples.partition_point(|&(done, _)| done < self.end_ns);
        &samples[from..to]
    }
}

/// What survives the noise guard. A discarded window takes its latency
/// samples, its frame count and its CPU time with it.
#[derive(Debug, Clone, Default)]
pub struct Kept {
    pub windows: Vec<Window>,
    pub discarded: usize,
    /// Steal share over every window, kept or not.
    pub steal_pct: f64,
    /// Fewer than two thirds of the asked-for windows were clean.
    pub disturbed: bool,
}

/// Keeps the clean windows. When none is clean the run still has to print
/// a number, so every window is kept and the run is marked disturbed.
pub fn keep_clean(windows: &[Window], wanted: usize) -> Kept {
    let clean: Vec<Window> = windows.iter().copied().filter(Window::clean).collect();
    let disturbed = clean.len() * 3 < wanted * 2;
    let kept = if clean.is_empty() {
        windows.to_vec()
    } else {
        clean
    };
    let steal_weighted: f64 = windows
        .iter()
        .map(|w| w.steal * (w.end_ns - w.start_ns) as f64)
        .sum();
    let span: f64 = windows.iter().map(|w| (w.end_ns - w.start_ns) as f64).sum();
    Kept {
        discarded: windows.len() - kept.len(),
        steal_pct: if span == 0.0 {
            0.0
        } else {
            100.0 * steal_weighted / span
        },
        disturbed,
        windows: kept,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_stat() {
        let stat = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\ncpu10 0 0 0 9 0 0 0 1 0 0\n";
        assert_eq!(
            parse_host_cpu(stat, None),
            Some(HostCpu {
                total: 1000,
                steal: 35
            })
        );
        assert_eq!(
            parse_host_cpu(stat, Some(0)),
            Some(HostCpu {
                total: 36,
                steal: 8
            })
        );
        assert_eq!(
            parse_host_cpu(stat, Some(1)),
            None,
            "cpu1 is not a prefix match of cpu10"
        );
        assert_eq!(parse_host_cpu("intr 1 2 3", None), None);
    }

    #[test]
    fn parses_peak_rss() {
        let status = "Name:\tvpbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(20.0));
    }

    fn mark(at_s: u64, total: u64, steal: u64, cpu_ms: f64) -> Mark {
        Mark {
            at_ns: at_s * 1_000_000_000,
            host: HostCpu { total, steal },
            self_cpu_ms: cpu_ms,
        }
    }

    #[test]
    fn discarded_windows_take_their_seconds_and_cpu_with_them() {
        let marks = [
            mark(0, 0, 0, 0.0),
            mark(1, 200, 0, 900.0),
            mark(2, 400, 40, 1500.0), // 20 % stolen
            mark(3, 600, 44, 2400.0), // 2 % stolen
        ];
        let windows: Vec<Window> = marks
            .windows(2)
            .map(|m| Window::between(&m[0], &m[1]))
            .collect();
        assert!(windows[0].clean() && !windows[1].clean() && windows[2].clean());
        let kept = keep_clean(&windows, 3);
        assert_eq!(kept.windows.len(), 2);
        assert_eq!(kept.discarded, 1);
        assert_eq!(kept.windows.iter().map(|w| w.cpu_ms).sum::<f64>(), 1800.0);
        assert!(!kept.disturbed);
        assert!((kept.steal_pct - 100.0 * 44.0 / 600.0).abs() < 1e-9);
        // A sample in the stolen second belongs to no kept window.
        let samples = [(500_000_000, 1), (1_500_000_000, 2), (2_500_000_000, 3)];
        let survivors: Vec<u64> = kept
            .windows
            .iter()
            .flat_map(|w| w.samples(&samples).iter().map(|s| s.1))
            .collect();
        assert_eq!(survivors, vec![1, 3]);
    }

    #[test]
    fn too_few_clean_windows_marks_the_run_disturbed() {
        let marks = [
            mark(0, 0, 0, 0.0),
            mark(1, 100, 50, 10.0),
            mark(2, 200, 100, 20.0),
            mark(3, 300, 101, 30.0),
        ];
        let windows: Vec<Window> = marks
            .windows(2)
            .map(|m| Window::between(&m[0], &m[1]))
            .collect();
        let kept = keep_clean(&windows, 3);
        assert!(kept.disturbed);
        assert_eq!(kept.windows.len(), 1);
        // Nothing clean at all: report everything, still disturbed.
        let all_bad = keep_clean(&windows[..2], 2);
        assert!(all_bad.disturbed);
        assert_eq!(all_bad.windows.len(), 2);
        assert_eq!(all_bad.discarded, 0);
    }
}
