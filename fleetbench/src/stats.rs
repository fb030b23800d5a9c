//! Measurement plumbing: the in-memory span recorder, order statistics,
//! `/proc` memory readings and the FNV-1a digest.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval recorded from the benchmark's own code. Spans of one
/// round share the round number as their id; `parent` indexes the span
/// that encloses this one.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub round: u64,
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory for the whole run and written out at the end.
/// Spans nest strictly: `open` pushes onto a stack, `close` pops it.
pub struct Spans {
    anchor: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    pub rep: u32,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { anchor: Instant::now(), spans: Vec::new(), stack: Vec::new(), rep: 0 }
    }

    fn now(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, round: u64) -> usize {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now();
        self.spans.push(Span { name, round, rep: self.rep, start_ns, end_ns: start_ns, parent });
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        assert_eq!(self.stack.pop(), Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = self.now();
    }

    /// Times `f` as a span.
    pub fn time<R>(&mut self, name: &'static str, round: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, round);
        let r = f();
        self.close(id);
        r
    }

    /// Spans named `name` recorded during repetition `rep`.
    pub fn of<'a>(&'a self, name: &'a str, rep: u32) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.rep == rep && s.name == name)
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children never overlap one another).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Per span name: (count, mean duration µs, mean self time µs), sorted
    /// by name.
    pub fn summary(&self) -> Vec<(&'static str, u64, f64, f64)> {
        let own = self.self_ns();
        let mut acc: std::collections::BTreeMap<&'static str, (u64, u64, u64)> =
            std::collections::BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let e = acc.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += own;
        }
        acc.into_iter()
            .map(|(name, (n, dur, own))| {
                (name, n, dur as f64 / n as f64 / 1e3, own as f64 / n as f64 / 1e3)
            })
            .collect()
    }

    /// Chrome-trace JSON (loadable in Perfetto): one complete event per
    /// span, with the round id, repetition and parent index as args.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"round\":{},\"parent\":{parent}}}}}",
                s.name,
                s.rep,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.round
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// The `q`-quantile (0 < q < 1) of `v` by nearest rank: the smallest
/// sample with at least `q` of the samples at or below it.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in kB.
pub fn proc_status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"))
}

/// Incremental FNV-1a (64-bit).
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
        // Field separator, so ("ab","c") and ("a","bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix64: derives the simulator's seed from the workload seed.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new();
        let root = s.open("round", 0);
        s.time("child", 0, || std::thread::sleep(std::time::Duration::from_millis(2)));
        s.close(root);
        let own = s.self_ns();
        assert_eq!(own[0], s.spans[0].dur_ns() - s.spans[1].dur_ns());
        assert_eq!(own[1], s.spans[1].dur_ns());
        assert_eq!(s.spans[1].parent, Some(0));
    }
}
