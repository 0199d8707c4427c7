//! Seeds, order statistics, memory and the result line.

use std::fmt::Write as _;

/// SplitMix64: the one mixing step every derived seed goes through, so the
/// workload seed alone fixes every input the program sees.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The inputs derived from one workload seed.
#[derive(Debug, Clone, Copy)]
pub struct Seeds(u64);

impl Seeds {
    pub fn new(workload_seed: u64) -> Self {
        Seeds(workload_seed)
    }

    fn derive(&self, stream: u64, index: u64) -> u64 {
        mix(mix(self.0 ^ mix(stream)) ^ index)
    }

    /// Master seed of the `i`-th MCDB-R tail query.
    pub fn tail(&self, i: u64) -> u64 {
        self.derive(2, i)
    }

    /// Master seed of the `i`-th naive MCDB batch.
    pub fn naive(&self, i: u64) -> u64 {
        self.derive(3, i)
    }

    /// Master seed of client `client`'s `j`-th server query.
    pub fn client(&self, client: u64, j: u64) -> u64 {
        self.derive(4 + client, j)
    }
}

/// Quantile `q` of `xs` by linear interpolation between order statistics.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a over the bit patterns of `xs`: a bit-exact fingerprint.
pub fn fingerprint(xs: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

pub const MIB: f64 = (1u64 << 20) as f64;

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// A named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `{"name": {"value": v, "unit": u}, ...}`.  Non-finite values become
/// `null`, which the reader rejects rather than misreads.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        );
    }
    out.push('}');
    out
}

/// The result line: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}
