//! Table formatting shared by the harness binaries.

/// One measured-vs-paper row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (function / component name).
    pub name: String,
    /// Column values, in table order.
    pub values: Vec<String>,
}

impl Row {
    /// Builds a row from anything displayable.
    pub fn new(name: impl Into<String>, values: &[&dyn std::fmt::Display]) -> Row {
        Row { name: name.into(), values: values.iter().map(|v| v.to_string()).collect() }
    }
}

/// Renders an aligned ASCII table with a title and column headers — the
/// buffered form, so benchmarks running on worker threads can emit their
/// sections in a deterministic order regardless of completion order.
pub fn render_table(title: &str, headers: &[&str], rows: &[Row]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "\n{title}").unwrap();
    writeln!(out, "{}", "=".repeat(title.len())).unwrap();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    let name_w = rows
        .iter()
        .map(|r| r.name.len())
        .chain(std::iter::once(headers.first().map_or(0, |h| h.len())))
        .max()
        .unwrap_or(10);
    for r in rows {
        for (i, v) in r.values.iter().enumerate() {
            if i + 1 < widths.len() {
                widths[i + 1] = widths[i + 1].max(v.len());
            }
        }
    }
    write!(out, "{:name_w$}", headers.first().copied().unwrap_or("")).unwrap();
    for (h, w) in headers.iter().skip(1).zip(widths.iter().skip(1)) {
        write!(out, "  {h:>w$}").unwrap();
    }
    out.push('\n');
    write!(out, "{}", "-".repeat(name_w)).unwrap();
    for w in widths.iter().skip(1) {
        write!(out, "  {}", "-".repeat(*w)).unwrap();
    }
    out.push('\n');
    for r in rows {
        write!(out, "{:name_w$}", r.name).unwrap();
        for (v, w) in r.values.iter().zip(widths.iter().skip(1)) {
            write!(out, "  {v:>w$}").unwrap();
        }
        out.push('\n');
    }
    out
}

/// Prints an aligned ASCII table with a title and column headers.
pub fn print_table(title: &str, headers: &[&str], rows: &[Row]) {
    print!("{}", render_table(title, headers, rows));
}

/// Formats a measured/paper pair as `measured (paper N)`.
pub fn vs_paper(measured: impl std::fmt::Display, paper: impl std::fmt::Display) -> String {
    format!("{measured} (paper {paper})")
}

/// The `--seed <u64>` argument, or the bench's default.
pub fn seed_from_args(default: u64) -> u64 {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--seed" {
            let v = args.next().expect("--seed needs a value");
            return v.parse().expect("--seed must be a u64");
        }
    }
    default
}

/// FNV-1a over identity words (cycle and instruction totals, little-endian
/// bytes): the machine-identity hash. Two runs that executed the same
/// simulated work hash identically, so `BENCH_*.json` files can be diffed
/// across hosts whose wall-clock numbers legitimately differ.
pub fn machine_hash(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in words.iter().flat_map(|w| w.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One run object of a [`BenchReport`], built field by field in emission
/// order. Every run carries the shared schema fields — `nodes`, `rounds`
/// and the `machine` identity hash — plus whatever the bench measures.
pub struct BenchRun {
    parts: Vec<String>,
}

impl BenchRun {
    /// Starts a run record for a `nodes`-node, `rounds`-round scenario.
    pub fn new(nodes: usize, rounds: u64) -> BenchRun {
        BenchRun { parts: vec![format!("\"nodes\":{nodes}"), format!("\"rounds\":{rounds}")] }
    }

    /// A wall-clock field, milliseconds at fixed 3-decimal precision.
    pub fn ms(mut self, key: &str, v: f64) -> BenchRun {
        self.parts.push(format!("\"{key}\":{v:.3}"));
        self
    }

    /// A ratio field (speedups, overhead percentages), 3 decimals.
    pub fn ratio(mut self, key: &str, v: f64) -> BenchRun {
        self.parts.push(format!("\"{key}\":{v:.3}"));
        self
    }

    /// An integer or boolean field.
    pub fn num(mut self, key: &str, v: impl std::fmt::Display) -> BenchRun {
        self.parts.push(format!("\"{key}\":{v}"));
        self
    }

    /// A pre-rendered JSON value (nested object or array).
    pub fn raw(mut self, key: &str, json: &str) -> BenchRun {
        self.parts.push(format!("\"{key}\":{json}"));
        self
    }

    /// The machine-identity hash, rendered as a hex string.
    pub fn machine(mut self, hash: u64) -> BenchRun {
        self.parts.push(format!("\"machine\":\"{hash:016x}\""));
        self
    }

    fn render(&self) -> String {
        format!("{{{}}}", self.parts.join(","))
    }
}

/// The shared `BENCH_*.json` writer: bench name, min-of-N pass count, and
/// a run array whose entries carry `nodes`/`rounds`/`machine` plus
/// whatever the bench measures.
pub struct BenchReport {
    name: &'static str,
    min_of: usize,
    runs: Vec<String>,
}

impl BenchReport {
    /// Starts a report for bench `name`, each mode timed as a minimum over
    /// `min_of` interleaved passes.
    pub fn new(name: &'static str, min_of: usize) -> BenchReport {
        BenchReport { name, min_of, runs: Vec::new() }
    }

    /// Appends a finished run record.
    pub fn run(&mut self, run: BenchRun) {
        self.runs.push(run.render());
    }

    /// The rendered report.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"bench\":\"{}\",\"min_of\":{},\"runs\":[{}]}}",
            self.name,
            self.min_of,
            self.runs.join(",")
        )
    }

    /// Writes `BENCH_<suffix>.json` in the current directory and announces
    /// it.
    pub fn write(&self, suffix: &str) {
        let path = format!("BENCH_{suffix}.json");
        std::fs::write(&path, self.to_json()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("\nwrote {path}");
    }
}
