//! The benchmark's own statistics: seeded inputs, percentiles, due-time
//! latency accounting and process accounting from `/proc/self`.
//!
//! Everything here is pure (or reads `/proc` text that the parsers take
//! as a string), so the unit tests at the bottom pin the rules the
//! reported numbers rest on.

use std::collections::VecDeque;

/// SplitMix64: a small seeded generator, so inputs depend only on the
/// benchmark's `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_be4c_4a11_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate`
    /// events per second, in nanoseconds.
    pub fn exp_gap_ns(&mut self, rate: f64) -> u64 {
        let u = self.unit();
        (-(1.0 - u).ln() / rate * 1e9) as u64
    }

    /// A seeded permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// Nearest-rank percentile of `samples` (`p` in 0–100). `None` when
/// there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples beyond it, for `n` samples. `None` when even the
/// median has fewer than ten samples above it.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 90.0, 50.0].into_iter().find(|p| {
        // Samples above the nearest-rank position (the epsilon keeps
        // 99.9% of 10 000 at rank 9 990, not 9 991).
        let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
        n.saturating_sub(rank) >= 10
    })
}

/// Outstanding load-report markers of one entity, oldest first, with
/// the instant each was due.
///
/// A tracker's view keeps only the newest load report, so the observer
/// cannot see every marker: when it finds the view at marker `m`, every
/// outstanding marker up to `m` has been delivered by then, and each is
/// counted as observed at that instant ("observed-by").
#[derive(Debug, Default)]
pub struct MarkerBook {
    pending: VecDeque<(u64, u64)>,
}

impl MarkerBook {
    /// Records marker `marker`, due at `due_ns`. Markers of one entity
    /// are issued in increasing order.
    pub fn issue(&mut self, marker: u64, due_ns: u64) {
        self.pending.push_back((marker, due_ns));
    }

    /// The oldest outstanding marker and its due time.
    pub fn oldest(&self) -> Option<(u64, u64)> {
        self.pending.front().copied()
    }

    /// The view shows `latest` at `now_ns`: resolves every outstanding
    /// marker up to it and returns their due-time latencies.
    pub fn observe(&mut self, latest: u64, now_ns: u64) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(&(marker, due)) = self.pending.front() {
            if marker > latest {
                break;
            }
            out.push(now_ns.saturating_sub(due));
            self.pending.pop_front();
        }
        out
    }

    /// Gives up on the oldest outstanding marker (it missed its
    /// deadline); returns whether one was pending.
    pub fn expire_oldest(&mut self) -> bool {
        self.pending.pop_front().is_some()
    }
}

/// How late the generator started a call that was due at `due_ns`.
pub fn lateness_ns(due_ns: u64, started_ns: u64) -> u64 {
    started_ns.saturating_sub(due_ns)
}

/// The `/proc` clock-tick unit (`USER_HZ`), fixed at 100 by the Linux
/// ABI for `/proc/<pid>/stat`.
pub const USER_HZ: f64 = 100.0;

/// Process CPU time (utime + stime) in seconds from the text of
/// `/proc/self/stat`. The command name (field 2) may hold spaces and
/// parentheses, so fields are counted after its last `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the comm: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// A `kB` field (such as `VmHWM`) or plain count (such as `Threads`)
/// from the text of `/proc/self/status`.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// Process CPU seconds consumed so far.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_s(&s))
        .unwrap_or(0.0)
}

/// Peak resident memory so far, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_field(&s, "VmHWM"))
        .map(|kb| kb as f64 / 1024.0)
        .unwrap_or(0.0)
}

/// Threads in this process now.
pub fn thread_count() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_field(&s, "Threads"))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
    }

    #[test]
    fn reported_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn latency_is_charged_from_the_due_time_under_lateness() {
        // Three reports due 1 ms apart; the generator stalls 5 ms
        // before the first, then sends the backlog 10 us apart. The
        // system itself takes 0.2 ms per report.
        let due = [0u64, 1_000_000, 2_000_000];
        let started = [5_000_000u64, 5_010_000, 5_020_000];
        let late: Vec<u64> = due
            .iter()
            .zip(started)
            .map(|(&d, s)| lateness_ns(d, s))
            .collect();
        assert_eq!(late, vec![5_000_000, 4_010_000, 3_020_000]);
        let mut book = MarkerBook::default();
        let mut lat = Vec::new();
        for (i, (&d, s)) in due.iter().zip(started).enumerate() {
            book.issue(i as u64 + 1, d);
            lat.extend(book.observe(i as u64 + 1, s + 200_000));
        }
        // Each latency carries the stall, not just the 0.2 ms of work.
        assert_eq!(lat, vec![5_200_000, 4_210_000, 3_220_000]);
        // A call started before it was due is not late.
        assert_eq!(lateness_ns(10, 5), 0);
    }

    #[test]
    fn markers_skipped_by_the_view_are_observed_by_the_later_one() {
        let mut book = MarkerBook::default();
        book.issue(1, 100);
        book.issue(2, 200);
        book.issue(3, 300);
        book.issue(4, 400);
        // The view jumped from nothing straight to marker 3 at t=1000:
        // markers 1..=3 all arrived by then.
        assert_eq!(book.observe(3, 1_000), vec![900, 800, 700]);
        assert_eq!(book.oldest(), Some((4, 400)));
        // Seeing an older marker again resolves nothing.
        assert!(book.observe(3, 1_100).is_empty());
        assert_eq!(book.observe(9, 1_200), vec![800]);
        assert_eq!(book.oldest(), None);
        // Expiry drops exactly the oldest.
        book.issue(5, 500);
        book.issue(6, 600);
        assert!(book.expire_oldest());
        assert_eq!(book.oldest(), Some((6, 600)));
    }

    #[test]
    fn cpu_time_parses_after_the_last_paren_of_the_command() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt
        // cminflt majflt cmajflt utime stime ...
        let stat = "4242 (perf (bench) x) S 1 4242 4242 0 -1 4194560 \
                    900 0 0 0 250 130 0 0 20 0 7 0 1234 5678 99";
        assert_eq!(parse_stat_cpu_s(stat), Some(3.8));
        assert_eq!(parse_stat_cpu_s("garbage"), None);
        assert_eq!(parse_stat_cpu_s("1 (x) S 1 2"), None);
        // The live file parses and only grows.
        let a = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() >= a);
    }

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tperfbench\nVmHWM:\t  123456 kB\nThreads:\t17\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(123_456));
        assert_eq!(parse_status_field(status, "Threads"), Some(17));
        assert_eq!(parse_status_field(status, "VmRSS"), None);
        assert!(thread_count() >= 1);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn seeded_inputs_repeat() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let ga: Vec<u64> = (0..5).map(|_| a.exp_gap_ns(1000.0)).collect();
        let gb: Vec<u64> = (0..5).map(|_| b.exp_gap_ns(1000.0)).collect();
        assert_eq!(ga, gb);
        let mut p = Rng::new(3).permutation(10);
        p.sort_unstable();
        assert_eq!(p, (0..10).collect::<Vec<_>>());
        // Mean gap is close to 1/rate.
        let mut r = Rng::new(11);
        let mean = (0..20_000)
            .map(|_| r.exp_gap_ns(1000.0) as f64)
            .sum::<f64>()
            / 20_000.0;
        assert!((mean - 1e6).abs() < 5e4, "mean gap {mean}");
    }
}
