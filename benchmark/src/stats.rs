//! Order statistics and the `/proc` readers behind the process and host
//! metrics.

/// The `q`-quantile of `values` (sorted in place): linear interpolation
/// between the two nearest ranks. 0 for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// The median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartile by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` computes them.
pub fn quartiles(values: &mut [f64]) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n.max(2) - 1);
        let frac = pos - j as f64;
        values[j - 1] + (values[(j).min(n - 1)] - values[j - 1]) * frac
    };
    (at(1), at(3))
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Kernel clock ticks per second, as `/proc/self/stat` counts CPU time.
/// Linux has fixed `USER_HZ` at 100 on every architecture it supports.
const TICKS_PER_S: f64 = 100.0;

/// A reading of this process's counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Proc {
    /// User CPU time of all threads, live and exited, in seconds.
    pub user_s: f64,
    /// System CPU time of all threads, in seconds.
    pub sys_s: f64,
    /// Context switches, voluntary and not, summed over live threads.
    pub ctx_switches: u64,
    /// Live threads.
    pub threads: u64,
    /// Peak resident set (`VmHWM`), MB.
    pub peak_rss_mb: f64,
}

impl Proc {
    /// Reads the counters now.
    pub fn now() -> Proc {
        let stat = read("/proc/self/stat");
        // Fields follow the parenthesised command name, which may itself
        // hold spaces; utime and stime are fields 14 and 15 overall.
        let after = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let fields: Vec<&str> = after.split_whitespace().collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        let status = read("/proc/self/status");
        let mut ctx_switches = 0;
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let s = read(&format!("{}/status", task.path().display()));
                ctx_switches += status_field(&s, "voluntary_ctxt_switches")
                    + status_field(&s, "nonvoluntary_ctxt_switches");
            }
        }
        Proc {
            user_s: ticks(11) / TICKS_PER_S,
            sys_s: ticks(12) / TICKS_PER_S,
            ctx_switches,
            threads: status_field(&status, "Threads"),
            peak_rss_mb: status_field(&status, "VmHWM") as f64 / 1024.0,
        }
    }

    /// User + system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// The CPUs this process may run on (`Cpus_allowed_list`), in order.
pub fn allowed_cpus() -> Vec<u32> {
    let status = read("/proc/self/status");
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("");
    list.trim()
        .split(',')
        .filter_map(|part| {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            Some(lo.trim().parse::<u32>().ok()?..=hi.trim().parse::<u32>().ok()?)
        })
        .flatten()
        .collect()
}

/// A reading of the host's counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Host {
    /// 1-minute load average.
    pub loadavg_1m: f64,
    steal: f64,
    total: f64,
}

impl Host {
    /// Reads the counters now.
    pub fn now() -> Host {
        let loadavg_1m = read("/proc/loadavg")
            .split_whitespace()
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0);
        // cpu  user nice system idle iowait irq softirq steal ...
        let cpu: Vec<f64> = read("/proc/stat")
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        Host {
            loadavg_1m,
            steal: cpu.get(7).copied().unwrap_or(0.0),
            total: cpu.iter().take(8).sum(),
        }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_share_since(&self, earlier: &Host) -> f64 {
        let total = self.total - earlier.total;
        if total > 0.0 {
            (self.steal - earlier.steal) / total
        } else {
            0.0
        }
    }

    /// Logical cores available to this process.
    pub fn cores() -> f64 {
        std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let mut v = vec![3.0, 1.0, 4.0, 1.0, 5.0];
        assert_eq!(quartiles(&mut v), (1.0, 4.5));
        assert_eq!(median(&mut [4.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn proc_and_host_readers_find_their_fields() {
        let p = Proc::now();
        assert!(p.threads >= 1 && p.peak_rss_mb > 0.0);
        assert!(Host::now().total > 0.0);
    }
}
